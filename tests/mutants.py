"""A record of source mutants that the test suite must catch.

Each mutant names a file under ``src/branchkit``, the exact text it
replaces (which occurs there once), the text that replaces it, and one
line on what it breaks.  Run

    python tests/mutants.py [NAME ...]

to check them (all of them when no name is given).  For each mutant the
checkout is copied to a temporary directory, the mutant is applied to the
copy's ``src/``, and the tier-1 suite, less the record's own check
(``SELF_CHECK``), runs on the copy with ``-x``.  The first failing test
is then run again on the copy with the mutant taken out: a test that
fails there too kills every mutant, so it is reported as BASELINE FAILS
and the run stops.  One line is printed per mutant: the first failing
test, SURVIVED or BASELINE FAILS, and the time taken.  The exit code is
1 when a mutant survived or the baseline fails, else 0.

Standard library only.  pytest does not collect this file (its name does
not start with ``test_``); tests/test_structure.py checks only that each
old text occurs once and that each mutated file still parses.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# The record's own check reads the mutated copy, where an old text that
# the new text does not contain occurs 0 times; left in, it would kill
# those mutants whatever the rest of the suite does.
SELF_CHECK = "tests/test_structure.py::test_each_recorded_mutant_still_applies"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/branchkit
    old: str
    new: str
    breaks: str


MUTANTS = (
    Mutant(
        "polarization-drops-long-minus", "branching.py",
        "    return direct_sum_onsp_sum(lam, mu.plus, mu.minus, even_mode)\n",
        "    if len(mu.minus) >= 2 and sum(mu.plus) >= 3:\n"
        "        return 0\n"
        "    return direct_sum_onsp_sum(lam, mu.plus, mu.minus, even_mode)\n",
        "polarization_sum answers 0 when ℓ(μ-) >= 2 and |μ+| >= 3"),
    Mutant(
        "bilinear-drops-long-alpha", "branching.py",
        "               for alpha, wa in _even_weights(lam.plus, even_mode)"
        ".items())\n",
        "               for alpha, wa in _even_weights(lam.plus, even_mode)"
        ".items()\n"
        "               if len(alpha) < 3 or sum(lam.minus) < 2)\n",
        "bilinear_sum drops α with ℓ(α) >= 3 when |λ-| >= 2"),
    Mutant(
        "direct-sum-skips-long-gamma", "branching.py",
        "               if sum(gamma) == s)\n",
        "               if sum(gamma) == s and (len(gamma) < 3 or sum(lam) < 6))\n",
        "direct_sum_onsp_sum skips γ with ℓ(γ) >= 3 when |λ| >= 6"),
    Mutant(
        "gl-sum-swaps-polynomial-factors", "branching.py",
        "                out[GLLabel(mp, mm), GLLabel(np_, nm)] = c\n",
        "                key = GLLabel(mp, mm), GLLabel(np_, nm)\n"
        "                if (not mm and not nm and sum(mp) + sum(np_) >= 8\n"
        "                        and sum(mp) > sum(np_)):\n"
        "                    key = key[::-1]\n"
        "                out[key] = c\n",
        "branch_decompose's gl-sum map keys a polynomial (μ, ν) with"
        " |μ|+|ν| >= 8 and |μ| > |ν| as (ν, μ), which keeps the dimension"
        " at equal ranks only"),
    Mutant(
        "gl-sum-per-cell-drops-long-gamma", "branching.py",
        "        c2 = lr_coeff(gm, mu.minus, nu.minus)\n",
        "        c2 = lr_coeff(gm, mu.minus, nu.minus)\n"
        "        if len(gm) >= 2 and sum(lam.plus) >= 3:\n"
        "            c2 = 0\n",
        "direct_sum_gl_sum drops γ- with ℓ(γ-) >= 2 when |λ+| >= 3"),
    Mutant(
        "gl-diag-per-cell-drops-long-a2", "branching.py",
        " " * 28 + "c1 = skew_expand(lam.plus, a1).get(a2, 0)\n",
        " " * 28 + "c1 = skew_expand(lam.plus, a1).get(a2, 0)\n"
        + " " * 28 + "if len(a2) >= 2 and lam.minus:\n"
        + " " * 32 + "c1 = 0\n",
        "diagonal_gl_sum drops a2 with ℓ(a2) >= 2 when λ- is not empty"),
    Mutant(
        "checks-give-littlewood-the-grid-cap", "verify.py",
        "run_littlewood_consistency(cap + 1)",
        "run_littlewood_consistency(cap)",
        "verify.checks runs the Littlewood sweep at a size cap N, not N+1"),
)


def mutated(mutant: Mutant, src: Path = ROOT / "src") -> str:
    """The mutated text of the mutant's file under ``src``; ValueError
    unless its old text occurs there exactly once."""
    text = (src / "branchkit" / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times"
                         f" in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE",
         "-p", "no:cacheprovider", *args],
        cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
        capture_output=True, text=True)


def _first_failure(stdout: str) -> str | None:
    """The node id of the first failing test in pytest's -rfE summary."""
    for line in stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return None


def run(mutant: Mutant) -> tuple[str, float]:
    """Tier-1 on a mutated copy of the checkout: the first failing test,
    SURVIVED, or BASELINE FAILS when that test also fails without the
    mutant; and the seconds taken."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    ".hypothesis", ".benchmarks", "out")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=ignore)
        target = copy / "src" / "branchkit" / mutant.path
        original = target.read_text(encoding="utf-8")
        target.write_text(mutated(mutant, copy / "src"), encoding="utf-8")
        start = time.perf_counter()
        suite = ("-x", "--continue-on-collection-errors", "--deselect",
                 SELF_CHECK)
        done = _pytest(copy, *suite)
        if done.returncode == 0:
            outcome = "SURVIVED"
        else:
            killer = _first_failure(done.stdout)
            target.write_text(original, encoding="utf-8")
            again = _pytest(copy, *([killer] if killer else suite))
            if again.returncode:
                outcome = f"BASELINE FAILS: {killer or 'tier-1'}"
            else:
                outcome = killer or f"killed (pytest exit {done.returncode})"
        seconds = time.perf_counter() - start
    return outcome, seconds


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)};"
              f" known: {', '.join(by_name)}", file=sys.stderr)
        return 2
    survived = False
    for mutant in [by_name[name] for name in names] or MUTANTS:
        outcome, seconds = run(mutant)
        print(f"{mutant.name}: {outcome} ({seconds:.1f} s)", flush=True)
        if outcome.startswith("BASELINE FAILS"):
            return 1
        survived |= outcome == "SURVIVED"
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
