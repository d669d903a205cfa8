"""Exhaustive verification grids: closed formulas against the oracle.

Each grid enumerates every label combination up to a size cap and compares
the Littlewood-Richardson formula with the character-theoretic
decomposition, cell by cell, at the least rank where the rule's
hypotheses hold on the cell: branching.stable_rank, read from the same
records as the stable-range checks, so the grids restate no inequality.
Orthogonal ranks additionally respect the oracle-safe floor
n >= 2*size+2 (size being the grid's size cap), which keeps every label
readable through SO characters.  Beyond the compared cells the full
nonzero supports of both sides are held equal at the largest rank used,
so a constituent appearing on only one side fails the grid even when it
is larger than the requested cap.  Each grid's labels, ranks and
pipelines follow the pair's rule in branching.PAIRS.  checks() is the one
list of checks that ``branchkit verify`` and selftest run.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import inf

from .branching import (
    PAIR_IDS,
    bilinear_sum,
    branch_decompose,
    diagonal_gl_sum,
    littlewood_restriction,
    rule_of,
    stable_rank,
)
from .lr import lr_coeff
from .oracle import duality_dim_check, oracle_decomposition
from .partitions import GLLabel, Partition, partitions_of, partitions_up_to

DEFAULT_MAX_SIZE = {pair: 7 for pair in PAIR_IDS} | {
    "gl-diag": 5, "o-diag": 6, "sp-diag": 6, "gl-sum": 6}


@dataclass
class GridReport:
    pair: str
    cases: int = 0
    mismatches: list = field(default_factory=list)
    elapsed_ms: int = 0
    finding: bool = False  # its mismatches are findings, not failures

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __enter__(self):  # elapsed_ms is the with block's wall time
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed_ms = int((time.perf_counter() - self._start) * 1000)

    def add(self, context, small, formula, oracle):
        """Record one counterexample: where it was found, the small-side
        key, and what each route gave."""
        self.mismatches.append({"context": context, "small": small,
                                "formula": formula, "oracle": oracle})

    def line(self) -> str:
        """The status line, then a failure's first counterexample."""
        head = f"{self.pair}: {self.cases} cases, "
        count = len(self.mismatches)
        if self.finding:
            return head + (f"{count} deviations (finding, not failure)"
                           if count else "no deviations")
        if self.ok:
            return head + "ok"
        m = self.mismatches[0]
        return (f"{head}{count} mismatches\n  first counterexample: "
                f"{m['context']} small={m['small']} formula={m['formula']}"
                f" oracle={m['oracle']}")


def partition_labels(max_size: int) -> list[Partition]:
    return list(partitions_up_to(max_size))


def gl_labels(max_total: int) -> list[GLLabel]:
    return [GLLabel(pp, mm)
            for total in range(max_total + 1) for a in range(total + 1)
            for pp in partitions_of(a) for mm in partitions_of(total - a)]


def _compare(report: GridReport, context, fmap, omap, cases: int,
             compared=None):
    """``cases`` cell comparisons.  Both maps are held equal on the keys
    that ``compared`` accepts, or on their full supports when it is None;
    a cell in neither map compares 0 = 0."""
    report.cases += cases
    for key in fmap.keys() | omap.keys():
        if compared and not compared(key):
            continue
        f = fmap.get(key, 0)
        o = omap.get(key, 0)
        if f != o:
            report.add(context, key, f, o)


def _grid_labels(family: str, max_size: int) -> list:
    return gl_labels(max_size) if family == "GL" else partition_labels(max_size)


def _lengths(label):
    """What the rule's hypotheses read of a label, or of a pair of labels:
    the lengths of its partitions."""
    if not label or isinstance(label[0], int):
        return len(label)
    return tuple(map(_lengths, label))  # a GLLabel or a pair of labels


def run_grid(pair: str, max_size: int | None = None) -> GridReport:
    """Formula-vs-oracle grid for one pair at the given size cap.  Each
    big-side input's cells are compared at the least rank where the
    rule's hypotheses hold on the cell (stable_rank; for an orthogonal
    subgroup, no lower than the oracle-safe floor), and cells where they
    hold at no rank are skipped.  A cell's rank depends only on its
    labels' lengths, so it is found once per pair of a big-side length
    profile and a key profile, and each rank's cells are held as the key
    profiles compared there."""
    rule = rule_of(pair)
    if max_size is None:
        max_size = DEFAULT_MAX_SIZE[pair]
    with GridReport(pair) as report:
        sums = rule.kind == "sum"
        floor = 2 * max_size + 2 if rule.small == "O" else 1
        smalls = _grid_labels(rule.small, max_size)
        if rule.kind == "diag":  # the tensor factors are the big side
            bigs, keys = list(product(smalls, smalls)), smalls
        else:
            bigs = _grid_labels(rule.big, max_size)
            keys = list(product(smalls, smalls)) if sums else smalls

        def rank(big, key):  # stable_rank reads the cell in query layout
            sides = ((key, big) if rule.kind == "diag"
                     else (big, key if sums else (key,)))
            return max(stable_rank(pair, *sides), floor)

        profile_of = {key: _lengths(key) for key in keys}
        count = Counter(profile_of.values())
        one_key = {kp: key for key, kp in profile_of.items()}
        groups: dict = {}  # big's profile -> {rank: the key profiles there}
        for big in bigs:
            profile = _lengths(big)
            if profile not in groups:
                by_rank = groups[profile] = {}
                for kp, key in one_key.items():
                    n = rank(big, key)
                    if n != inf:
                        by_rank.setdefault(n, set()).add(kp)
            by_rank = groups[profile]
            # one formula map for a sum rule: it has no rank-dependent caps
            fmap = branch_decompose(pair, big, None) if sums else None
            support_n = max(by_rank)  # both maps carry the full support there
            for n, kps in sorted(by_rank.items()):
                ranks = (n, n) if sums else (n,)
                omap = oracle_decomposition(pair, ranks, big)
                _compare(report, (pair, ranks, big),
                         fmap if sums else branch_decompose(pair, big, ranks),
                         omap, sum(count[kp] for kp in kps),
                         None if n == support_n
                         else lambda key, kps=kps: profile_of.get(key) in kps)
    return report


# ---------------------------------------------------------------------------
# other verification sweeps


def run_littlewood_consistency(max_size: int = 6) -> GridReport:
    """Restriction theorems against the bilinear-form rules with empty
    negative part, for both subgroup families."""
    with GridReport("littlewood") as report:
        for lam in partitions_up_to(max_size):
            for mu in partitions_up_to(sum(lam)):
                for family, even, n in (
                        ("O", "rows", max(2 * sum(lam), 2 * len(mu), 2)),
                        ("Sp", "columns", max(sum(lam), len(mu), 1))):
                    lhs = littlewood_restriction(lam, mu, family, n)
                    rhs = bilinear_sum(GLLabel(lam, ()), mu, even)
                    report.cases += 1
                    if lhs != rhs:
                        report.add((family, n, lam), mu, rhs, lhs)
    return report


def run_duality_sweeps(max_degree: int = 8) -> GridReport:
    """Graded-dimension identities for the multiplicity-free
    decompositions behind the rules."""
    with GridReport("duality") as report:
        def check(kind, d, **kw):
            report.cases += 1
            if not duality_dim_check(kind, d, **kw):
                report.add((kind, kw), d, "dimension mismatch", "")

        for n in range(1, 5):
            for p in range(1, 5):
                for d in range(max_degree + 1):
                    check("cauchy_gl", d, n=n, p=p)
        for k in range(1, 5):
            for d in range(max_degree + 1):
                check("sym_square", d, k=k)
                check("wedge_square", d, k=k)
        cap = min(max_degree, 6)
        for k in range(1, 3):
            for n in range(2 * k + 1, 2 * k + 4):
                for d in range(cap + 1):
                    check("o_duality", d, n=n, k=k)
            for n in range(k, k + 3):
                for d in range(cap + 1):
                    check("sp_duality", d, n=n, k=k)
    return report


def run_padding_probe(max_size: int = 3) -> GridReport:
    """Rational tensor sums with the internal length caps padded by one
    beyond minimal; its report is a finding, so a deviation is not a
    failure.  With caps at least minimal each cap only skips a skew
    expansion that would be empty, so no deviation can occur; the probe
    stays because the verify-all benchmark pins its cell count."""
    with GridReport("padding-probe", finding=True) as report:
        labels = gl_labels(max_size)
        for mu in labels:
            for nu in labels:
                p, q = len(mu.plus), len(mu.minus)
                r, s = len(nu.plus), len(nu.minus)
                for lam in labels:
                    if stable_rank("gl-diag", lam, (mu, nu)) == inf:
                        continue  # ℓ(λ+) > p+r or ℓ(λ-) > q+s
                    report.cases += 1
                    minimal = diagonal_gl_sum(lam, mu, nu, caps=(p, q, r, s))
                    padded = diagonal_gl_sum(
                        lam, mu, nu, caps=(p + 1, q + 1, r + 1, s + 1))
                    free = diagonal_gl_sum(lam, mu, nu)
                    if not (minimal == padded == free):
                        report.add(("padding", mu, nu), lam, (minimal, padded),
                                   free)
    return report


def run_lr_spot_checks(count: int = 60, seed: int = 1) -> GridReport:
    """Random coefficients recomputed with the two factors' roles swapped
    (an independent search over a different skew shape)."""
    from .lr import lr_count_direct

    with GridReport("lr-spot") as report:
        rng = random.Random(seed)
        pool = list(partitions_up_to(7))
        for _ in range(count):
            mu = rng.choice(pool)
            nu = rng.choice(pool)
            lam = rng.choice(list(partitions_of(sum(mu) + sum(nu))))
            report.cases += 1
            a = lr_count_direct(lam, mu, nu)
            b = lr_count_direct(lam, nu, mu)
            c = lr_coeff(lam, mu, nu)
            if not (a == b == c):
                report.add((lam, mu, nu), lam, c, (a, b))
    return report


def checks(pair: str = "all", cap: int | None = None,
           seed: int | None = None):
    """The one list of checks: yield the report of each check that
    ``branchkit verify --pair PAIR`` runs, as it is done.  That is one
    pair's grid, or for "all" the ten grids, the Littlewood, duality and
    lr-spot sweeps and the padding probe (a finding).  A cap N reaches the
    grids at N and Littlewood at N+1, and only lr-spot reads the seed;
    None leaves each check at its own default size and seed."""
    for each in PAIR_IDS if pair == "all" else (pair,):
        yield run_grid(each, cap)
    if pair != "all":
        return
    yield (run_littlewood_consistency() if cap is None
           else run_littlewood_consistency(cap + 1))
    yield run_duality_sweeps()
    yield (run_lr_spot_checks() if seed is None
           else run_lr_spot_checks(seed=seed))
    yield run_padding_probe()
