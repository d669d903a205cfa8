"""The four benchmark workloads and the independent checks on their outputs.

Each workload builds its inputs from the seed in its constructor (set-up),
then runs rounds: ``start_round`` resets state outside the timing, and
``round_ops`` lists the round's operations as (key, thunk) pairs, each of
which the worker times alone.  The thunks call the package only through
``self.calls``, which maps a span name to the entry point, so that a traced
run can wrap them.  ``check`` runs after the timed phase and returns the
number of failures in one operation's output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import shutil
import tempfile
from math import comb, factorial

# pinned verify-all input: today's caps, passed explicitly
GRID_CAPS = {"gl-diag": 4, "o-diag": 5, "sp-diag": 5, "gl-sum": 5,
             "o-sum": 5, "sp-sum": 5, "gl-in-o": 5, "gl-in-sp": 5,
             "o-in-gl": 5, "sp-in-gl": 5}
LITTLEWOOD_CAP = 6
DUALITY_DEGREE = 8
LR_SPOT_COUNT, LR_SPOT_SEED = 60, 1
PADDING_CAP = 3
EXPECTED_CELLS = 479_370
GRID_NAMES = tuple(f"verify.grid.{name}" for name in (
    *GRID_CAPS, "littlewood", "duality", "lr-spot", "padding-probe"))


def memos(bk) -> tuple[dict, ...]:
    """Every memo in the package."""
    return (bk.lr._SKEW_CACHE, bk.characters._CHAR_CACHE,
            bk.characters._FREUD_CACHE, bk.characters._SUPPORT_CACHE,
            bk.oracle._ORACLE_CACHE)


def clear_memos(bk) -> None:
    """Empty every memo in the package, so a round starts cold."""
    for memo in memos(bk):
        memo.clear()


def fmt(p) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def fmt_label(label) -> str:
    if hasattr(label, "plus"):
        return fmt(label.plus) + ("/" + fmt(label.minus) if label.minus else "")
    return fmt(label)


def hook_dim(p) -> int:
    """Number of standard Young tableaux of shape p, by the hook formula."""
    conj = [sum(1 for x in p if x > c) for c in range(p[0])] if p else []
    hooks = 1
    for r, row in enumerate(p):
        for c in range(row):
            hooks *= row - c + conj[c] - r - 1
    return factorial(sum(p)) // hooks


def partitions_of(n: int, max_part: int | None = None):
    """Every partition of n, largest parts first."""
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@functools.cache
def sn_character(beta: frozenset, rho: tuple) -> int:
    """χ^λ(ρ) of the symmetric group by the Murnaghan–Nakayama rule; λ is
    given by its beta-set, and a rim hook of length r is a bead moved r
    places down onto a free position."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            height = sum(1 for x in beta if b - r < x < b)
            total += (-1) ** height * sn_character(beta - {b} | {b - r}, rest)
    return total


def class_size(rho) -> int:
    """Size of the conjugacy class of S_|ρ| with cycle type ρ."""
    z = 1
    for part in set(rho):
        k = rho.count(part)
        z *= part ** k * factorial(k)
    return factorial(sum(rho)) // z


def lr_by_characters(lam, mu, nu) -> int:
    """c^λ_{μν} as the multiplicity of χ^μ × χ^ν in χ^λ restricted to
    S_|μ| × S_|ν|, summed over pairs of conjugacy classes."""
    rows = max(len(lam), len(mu), len(nu))

    def beta(p):
        return frozenset(x + rows - 1 - i for i, x in enumerate(
            tuple(p) + (0,) * (rows - len(p))))

    m, n = sum(mu), sum(nu)
    total = 0
    for a in partitions_of(m):
        chi_mu = sn_character(beta(mu), a)
        if not chi_mu:
            continue
        for b in partitions_of(n):
            rho = tuple(sorted(a + b, reverse=True))
            total += (sn_character(beta(lam), rho) * chi_mu
                      * sn_character(beta(nu), b) * class_size(a)
                      * class_size(b))
    return total // (factorial(m) * factorial(n))


def remove_corners(p, cells: int, rng: random.Random):
    """A random partition inside p with ``cells`` fewer boxes."""
    p = list(p)
    for _ in range(cells):
        corners = [i for i in range(len(p))
                   if i + 1 == len(p) or p[i] > p[i + 1]]
        i = rng.choice(corners)
        p[i] -= 1
        if not p[i]:
            p.pop()
    return tuple(p)


def criterion5_ranks(pair: str, big) -> tuple:
    """The ranks acceptance criterion 5 uses: room for every constituent."""
    if pair == "o-diag":
        mu, nu = big
        return (max(2 * (sum(mu) + sum(nu)) + 2, 2 * (len(mu) + len(nu))),)
    if pair == "sp-diag":
        mu, nu = big
        return (max(len(mu) + len(nu), sum(mu) + sum(nu), 1),)
    if pair == "gl-diag":
        mu, nu = big
        n = max(len(mu.plus) + len(mu.minus) + len(nu.plus) + len(nu.minus), 1)
        return (max(n, mu.total_size() + nu.total_size()),)
    if pair == "gl-sum":
        n = max(big.total_size(), 1)
        return (n, n)
    if pair == "o-sum":
        n = max(2 * sum(big) + 2, 2)
        return (n, n)
    if pair == "sp-sum":
        n = max(sum(big), 1)
        return (n, n)
    if pair == "o-in-gl":
        return (max(2 * big.total_size() + 2, 2),)
    if pair == "sp-in-gl":
        return (max(big.total_size(), 1),)
    return (max(2 * len(big), 1),)  # gl-in-o, gl-in-sp


class Workload:
    name = ""
    grouped = False  # whether samples are group means, see latency_summary

    def __init__(self, bk, seed: int, out_dir: str):
        self.bk = bk
        self.rng = random.Random(seed)
        self.calls: dict = {}

    def start_round(self) -> None:
        clear_memos(self.bk)

    def round_ops(self) -> list:
        raise NotImplementedError

    def before_op(self) -> None:
        """Runs before each operation, outside its timing."""

    def attempted(self, records) -> int:
        return len(records)

    def samples(self, records) -> list[tuple[float, int]]:
        """(latency, weight) per timed sample."""
        return [(seconds, 1) for _, seconds, _ in records]

    def check(self, key, output) -> int:
        raise NotImplementedError

    def self_test(self) -> int:
        """Failures of the checks themselves on cases with known answers."""
        return 0

    def snapshot(self):
        """The state an operation starts from, outside the memos' values."""
        return [dict(memo) for memo in memos(self.bk)]

    def restore(self, state) -> None:
        for memo, saved in zip(memos(self.bk), state):
            memo.clear()
            memo.update(saved)

    def answer(self, output):
        """The part of an output that repeats of an operation must share."""
        return output

    def round_ok(self, records) -> bool:
        """Whether a round ran the whole pinned input."""
        return True

    def facts(self, records) -> dict:
        """Layer state read at the end of a round, outside the timing."""
        return {"lr.memo_entries": self.bk.lr.cache_size()}

    def close(self) -> None:
        pass


class VerifyAll(Workload):
    """The acceptance job: ten grids and four sweeps at pinned caps.  The
    seed does not change the input, which is pinned by its cell count."""

    name = "verify-all"
    # cells are charged their grid's mean time, so a percentile of them is
    # one grid's mean: the median is gl-sum's (85% of the cells) and p99
    # o-diag's, and each swings with the speed of its few seconds
    grouped = True

    def __init__(self, bk, seed, out_dir):
        super().__init__(bk, seed, out_dir)
        v = bk.verify
        jobs = {f"verify.grid.{pair}": (v.run_grid, (pair, cap))
                for pair, cap in GRID_CAPS.items()}
        jobs["verify.grid.littlewood"] = (
            v.run_littlewood_consistency, (LITTLEWOOD_CAP,))
        jobs["verify.grid.duality"] = (v.run_duality_sweeps, (DUALITY_DEGREE,))
        jobs["verify.grid.lr-spot"] = (
            v.run_lr_spot_checks, (LR_SPOT_COUNT, LR_SPOT_SEED))
        jobs["verify.grid.padding-probe"] = (v.run_padding_probe, (PADDING_CAP,))
        self.args = {name: args for name, (_, args) in jobs.items()}
        self.calls = {name: fn for name, (fn, _) in jobs.items()}

    def round_ops(self):
        def job(name):
            report = self.calls[name](*self.args[name])
            return report.cases, report.mismatches

        return [(name, lambda name=name: job(name)) for name in self.calls]

    def samples(self, records):
        # cells are not timed alone: each is charged its grid's mean time
        return [(seconds / cases, cases)
                for _, seconds, (cases, _) in records if cases]

    def attempted(self, records):
        return sum(cases for _, _, (cases, _) in records)

    def check(self, key, output):
        if key == "verify.grid.padding-probe":
            return 0  # deviations there are findings, not failures
        return len(output[1])

    def round_ok(self, records):
        return self.attempted(records) == EXPECTED_CELLS

    def facts(self, records):
        return {"lr.memo_entries": self.bk.lr.cache_size(),
                "verify.cases": self.attempted(records)}


# tensor products on large shapes, 20 ms to 0.25 s each on a 2-core x86
# machine; no two share a memo key (λ, larger factor)
TENSOR_POOL = (
    ((5, 4, 3, 2, 1), (4, 3, 2, 1)),
    ((6, 4, 3, 2, 1), (4, 3, 2, 1)),
    ((6, 5, 4, 3, 2), (3, 3, 2, 1)),
    ((5, 5, 3, 2, 1), (4, 3, 2, 1)),
    ((5, 4, 3, 3, 1), (4, 3, 2, 1)),
    ((5, 4, 3, 2, 1), (4, 3, 2)),
    ((6, 4, 3, 2, 1), (3, 3, 2, 1)),
    ((4, 4, 3, 2, 1), (4, 3, 2, 1)),
    ((6, 5, 4, 3, 2), (3, 2, 2, 1)),
    ((6, 4, 2, 1), (4, 3, 2, 1)),
    ((6, 4, 3, 2, 1), (3, 2, 2, 1)),
    ((5, 5, 3, 2, 1), (3, 3, 2, 1)),
    ((5, 5, 4, 3), (4, 3, 2, 1)),
    ((5, 4, 4, 2, 1), (3, 3, 2, 1)),
    ((5, 4, 3, 2, 1), (4, 3, 1)),
    ((5, 4, 3, 3, 1), (3, 3, 2, 1)),
    ((6, 4, 2, 1), (3, 3, 2, 1)),
    ((6, 5, 4, 3, 2), (4, 2, 1)),
    ((4, 4, 3, 2, 1), (4, 3, 2)),
    ((6, 4, 3, 2, 1), (4, 2, 1)),
    ((5, 5, 3, 2, 1), (4, 3, 1)),
    ((6, 5, 3, 1), (4, 3, 1)),
    ((5, 4, 3, 2, 1), (4, 2, 1)),
    ((5, 4, 4, 2, 1), (4, 3, 1)),
)
# single coefficients: |λ| = 30 inside an 8×8 box, larger factor of 16 boxes
LR_POOL_SEED, LR_POOL_SIZE = 7, 150
# known coefficients for the check's self-test
ANCHOR_OUTER, ANCHOR_LEFT = (4, 3, 2, 1), 6


def lr_pool(bk) -> list:
    rng = random.Random(LR_POOL_SEED)
    shapes = list(bk.partitions.partitions_of(30, max_part=8, max_length=8))
    pool = []
    for _ in range(LR_POOL_SIZE):
        lam = rng.choice(shapes)
        pool.append((lam, remove_corners(lam, 14, rng),
                     remove_corners(lam, 16, rng)))
    return pool


class LRProducts(Workload):
    """tensor_expand on large shapes and single lr_coeff calls, cold memo at
    the start of each round.  The shapes are fixed pools, so the cost of a
    round does not depend on the seed; the seed orders each round and picks
    the argument order, which the answers must not depend on."""

    name = "lr-products"

    def __init__(self, bk, seed, out_dir):
        super().__init__(bk, seed, out_dir)
        self.calls = {"lr.tensor_expand": bk.lr.tensor_expand,
                      "lr.lr_coeff": bk.lr.lr_coeff}
        self.ops = [("tensor", a, b) if self.rng.random() < 0.5
                    else ("tensor", b, a) for a, b in TENSOR_POOL]
        for lam, mu, nu in lr_pool(bk):
            self.ops.append(("coeff", lam, mu, nu) if self.rng.random() < 0.5
                            else ("coeff", lam, nu, mu))

    def round_ops(self):
        order = list(self.ops)
        self.rng.shuffle(order)
        entry = {"tensor": "lr.tensor_expand", "coeff": "lr.lr_coeff"}
        return [(op, lambda op=op: self.calls[entry[op[0]]](*op[1:]))
                for op in order]

    def check(self, op, output):
        if op[0] == "tensor":
            _, mu, nu = op
            lhs = sum(c * hook_dim(lam) for lam, c in output.items())
            rhs = comb(sum(mu) + sum(nu), sum(mu)) * hook_dim(mu) * hook_dim(nu)
            return int(lhs != rhs or any(c <= 0 for c in output.values()))
        _, lam, mu, nu = op
        # lr_coeff searches λ/larger for content smaller; recount the other
        # skew shape, λ/smaller, for content larger
        small, large = sorted((mu, nu), key=lambda p: (sum(p), p))
        return int(output != self.bk.lr.lr_count_direct(lam, small, large))

    def self_test(self):
        """lr_coeff and lr_count_direct in both roles against the symmetric
        group characters, on every c^λ_{μν} with λ = ANCHOR_OUTER and
        |μ| = ANCHOR_LEFT; the coefficients reach 3, so a search that
        miscounts on either skew shape disagrees here."""
        lr, parts = self.bk.lr, self.bk.partitions
        failures = 0
        lam = ANCHOR_OUTER
        for mu in partitions_of(ANCHOR_LEFT):
            for nu in partitions_of(sum(lam) - ANCHOR_LEFT):
                if not (parts.contains(lam, mu) and parts.contains(lam, nu)):
                    continue
                want = lr_by_characters(lam, mu, nu)
                got = (lr.lr_coeff(lam, mu, nu), lr.lr_count_direct(lam, mu, nu),
                       lr.lr_count_direct(lam, nu, mu))
                failures += sum(g != want for g in got)
        return failures


def decompose_pool(bk):
    def _gl(plus, minus):
        return bk.partitions.GLLabel(plus, minus)

    return (
        ("gl-diag", (_gl((4, 3, 2), (3, 2, 1)), _gl((3, 2), (2, 1)))),
        ("o-diag", ((5, 4, 3, 2), (4, 3, 2))),
        ("sp-diag", ((4, 3, 2, 1), (4, 3, 2, 1))),
        ("gl-sum", _gl((4, 3, 2, 1), (3, 2, 1))),
        ("o-sum", (5, 4, 3, 2, 1)),
        ("sp-sum", (6, 4, 3, 2, 1)),
        ("gl-in-o", (6, 4, 3, 2)),
        ("gl-in-sp", (5, 5, 3, 2, 1)),
        ("o-in-gl", _gl((5, 4, 3), (4, 3))),
        ("sp-in-gl", _gl((4, 3, 2, 1), (3, 2))),
    )


class DecomposeLarge(Workload):
    """branch_decompose on large labels across all ten pairs, at the ranks
    of acceptance criterion 5.  The memo is cleared at the start of each
    round only, so later decompositions reuse part of the earlier work; the
    labels are fixed and the seed orders each round."""

    name = "decompose-large"

    def __init__(self, bk, seed, out_dir):
        super().__init__(bk, seed, out_dir)
        self.calls = {"branching.branch_decompose":
                      bk.branching.branch_decompose}
        self.ops = [(pair, big, criterion5_ranks(pair, big))
                    for pair, big in decompose_pool(bk)]

    def round_ops(self):
        order = list(self.ops)
        self.rng.shuffle(order)
        return [(op, lambda op=op:
                 self.calls["branching.branch_decompose"](*op))
                for op in order]

    def check(self, op, dec):
        pair, big, ranks = op
        small_dim, big_labels = self._dims(pair, big, ranks)
        big_dim = 1
        for fam, rank, label in big_labels:
            big_dim *= weyl_dim(fam, rank, label)
            # anchor the formula below to the package's own dim_irrep
            rep = self.bk.branching.RepLabel(fam, rank, label)
            if weyl_dim(fam, rank, label) != self.bk.oracle.dim_irrep(rep):
                return 1
        total = sum(m * small_dim(key) for key, m in dec.items())
        return int(not dec or total != big_dim)

    @staticmethod
    def _dims(pair, big, ranks):
        """The dimension of a constituent, and the (family, rank, label)
        factors of the big side, at the ranks of the decomposition."""
        n = ranks[0]
        fam = {"gl": "GL", "o": "O", "sp": "Sp"}[pair.split("-")[0]]
        if pair.endswith("diag"):
            return (lambda lam: weyl_dim(fam, n, lam),
                    [(fam, n, big[0]), (fam, n, big[1])])
        if pair.endswith("sum"):
            m = ranks[1]
            return (lambda key: weyl_dim(fam, n, key[0])
                    * weyl_dim(fam, m, key[1]),
                    [(fam, n + m, big)])
        small_fam, big_fam, big_rank = {
            "gl-in-o": ("GL", "O", 2 * n), "gl-in-sp": ("GL", "Sp", n),
            "o-in-gl": ("O", "GL", n), "sp-in-gl": ("Sp", "GL", 2 * n),
        }[pair]
        return (lambda mu: weyl_dim(small_fam, n, mu),
                [(big_fam, big_rank, big)])


@functools.cache
def weyl_dim(family: str, n: int, label) -> int:
    """Dimension of the irreducible of GL(n), Sp(2n) or O(n) with this
    label, by Weyl's formula as exact integer products; O labels need
    ℓ(λ) < n/2.  The package's dim_irrep accumulates the same product in
    Fractions, which is too slow for the thousands of constituents here."""
    if family == "GL":
        k = n
        w = (label.plus + (0,) * (n - len(label.plus) - len(label.minus))
             + tuple(-x for x in reversed(label.minus)))
        rho2 = [n - 1 - 2 * i for i in range(k)]
        signs, short = (-1,), False
    elif family == "Sp":
        k = n
        w = tuple(label) + (0,) * (k - len(label))
        rho2 = [2 * (k - i) for i in range(k)]
        signs, short = (-1, 1), True
    else:
        if 2 * len(label) >= n:
            raise ValueError(f"O label {label} outside ℓ(λ) < {n}/2")
        k = n // 2
        w = tuple(label) + (0,) * (k - len(label))
        odd = n % 2
        rho2 = [2 * (k - i) - 1 if odd else 2 * (k - 1 - i) for i in range(k)]
        signs, short = (-1, 1), bool(odd)
    v = [2 * x + r for x, r in zip(w, rho2)]  # 2(λ + ρ)
    num = den = 1
    for i in range(k):
        for j in range(i + 1, k):
            for s in signs:
                num *= v[i] + s * v[j]
                den *= rho2[i] + s * rho2[j]
        if short:
            num *= v[i]
            den *= rho2[i]
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Weyl formula gave a fraction for {label}")
    return dim


# decompositions whose LR memo pre-fills the cli-cached memo file
PREFILL = (
    ["decompose", "--pair", "o-in-gl", "-n", "40", "--big", "[5,4,3]/[4,3]"],
    ["decompose", "--pair", "o-diag", "-n", "40", "--mu", "[4,3,2,1]",
     "--nu", "[4,3,2]"],
)
CLI_REQUESTS = 6


class CliCached(Workload):
    """Seeded branch, lr and decompose requests through cli.main with
    BRANCHKIT_CACHE set.  Set-up pre-fills the memo file; each round starts
    from that file, and the memo is cleared before each request, so every
    request loads the file and writes it back as a new process would."""

    name = "cli-cached"

    def __init__(self, bk, seed, out_dir):
        super().__init__(bk, seed, out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-cached-", dir=out_dir)
        self.cache = os.path.join(self.tmp, "memo.txt")
        self.calls = {"cli.main": bk.cli.main}
        self.requests = [self._request() for _ in range(CLI_REQUESTS)]
        os.environ["BRANCHKIT_CACHE"] = self.cache
        for argv in PREFILL:
            bk.lr.clear_cache()
            code, _ = self._run(bk.cli.main, argv)
            if code != 0:
                raise RuntimeError(f"pre-fill request failed: {argv}")
        with open(self.cache, "rb") as fh:
            self.prefilled = fh.read()

    def _request(self) -> list[str]:
        kind = self.rng.choice(("branch", "lr", "decompose"))
        rng = self.rng
        if kind == "lr":
            lam = rng.choice(list(self.bk.partitions.partitions_of(
                rng.randint(10, 12), max_part=6, max_length=6)))
            left = remove_corners(lam, sum(lam) // 2, rng)
            right = remove_corners(lam, sum(left), rng)
            return ["lr", "--outer", fmt(lam), "--left", fmt(left),
                    "--right", fmt(right)]
        while True:
            pair, big, ranks = self._decompose_input()
            argv = ["--pair", pair, "-n", str(ranks[0])]
            if len(ranks) > 1:
                argv += ["-m", str(ranks[1])]
            if kind == "decompose":
                if pair.endswith("diag"):
                    argv += ["--mu", fmt_label(big[0]),
                             "--nu", fmt_label(big[1])]
                else:
                    argv += ["--big", fmt_label(big)]
                return ["decompose"] + argv
            argv = self._branch_argv(pair, big, ranks, argv)
            if argv:
                return ["branch"] + argv

    def _decompose_input(self):
        rng, parts = self.rng, self.bk.partitions
        pair = rng.choice(self.bk.branching.PAIR_IDS)

        def part(size):
            return rng.choice(list(parts.partitions_of(size))) if size else ()

        def gl(size):
            a = rng.randint(0, size)
            return parts.GLLabel(part(a), part(size - a))

        label = gl if pair in ("gl-diag", "gl-sum", "o-in-gl",
                               "sp-in-gl") else part
        if pair.endswith("diag"):
            big = (label(rng.randint(1, 3)), label(rng.randint(1, 3)))
        else:
            big = label(rng.randint(2, 4))
        return pair, big, criterion5_ranks(pair, big)

    def _branch_argv(self, pair, big, ranks, argv):
        """argv for one nonzero multiplicity of the decomposition of big,
        or None when it has no constituent that is a valid query."""
        br = self.bk.branching
        dec = br.branch_decompose(pair, big, ranks)
        self.bk.lr.clear_cache()
        keys = sorted(dec, key=repr)
        self.rng.shuffle(keys)
        for key in keys:
            if pair.endswith("diag"):
                q_big, smalls = key, list(big)
            elif pair.endswith("sum"):
                q_big, smalls = big, list(key)
            else:
                q_big, smalls = big, [key]
            try:
                q = br.query(pair, ranks, q_big, smalls)
                q.validate_labels()
            except ValueError:
                continue
            if not br.stable_range_violations(q):
                return argv + ["--big", fmt_label(q_big), "--small"] + [
                    fmt_label(s) for s in smalls]
        return None

    @staticmethod
    def _run(main, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue()

    def start_round(self):
        clear_memos(self.bk)
        with open(self.cache, "wb") as fh:
            fh.write(self.prefilled)

    def before_op(self):
        self.bk.lr.clear_cache()

    def round_ops(self):
        return [(tuple(argv),
                 lambda argv=argv: self._run(self.calls["cli.main"], argv))
                for argv in self.requests]

    def snapshot(self):
        with open(self.cache, "rb") as fh:
            return super().snapshot(), fh.read()

    def restore(self, state):
        memo_state, data = state
        super().restore(memo_state)
        with open(self.cache, "wb") as fh:
            fh.write(data)

    def answer(self, output):
        code, text = output
        return code, json.loads(text)["result"] if code == 0 else None

    def check(self, argv, output):
        if output[0] != 0:
            return 1
        saved = os.environ.pop("BRANCHKIT_CACHE")
        try:
            self.bk.lr.clear_cache()
            reference = self._run(self.bk.cli.main, list(argv))
        finally:
            os.environ["BRANCHKIT_CACHE"] = saved
        return int(self.answer(output) != self.answer(reference))

    def facts(self, records):
        with open(self.cache, "rb") as fh:
            data = fh.read()
        return {"lr.memo_entries": self.bk.lr.cache_size(),
                "cli.cache_entries": data.count(b"\n"),
                "cli.cache_file_kb": len(data) / 1024}

    def close(self):
        os.environ.pop("BRANCHKIT_CACHE", None)
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (VerifyAll, LRProducts, DecomposeLarge,
                                 CliCached)}
