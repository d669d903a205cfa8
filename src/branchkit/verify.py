"""Exhaustive verification grids: closed formulas against the oracle.

Each grid enumerates every label combination up to a size cap and compares
the Littlewood-Richardson formula with the character-theoretic
decomposition, cell by cell, at the smallest ranks satisfying the rule's
hypotheses.  Orthogonal ranks additionally respect the oracle-safe floor
n >= 2*size+2 (size being the grid's size cap), which keeps every label
readable through SO characters.  Beyond the compared cells the full
nonzero supports of both sides are held equal at the largest rank used,
so a constituent appearing on only one side fails the grid even when it
is larger than the requested cap.  Each grid's labels, ranks and
pipelines follow the pair's rule in branching.PAIRS.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product

from .branching import (
    PAIR_IDS,
    PAIRS,
    PairRule,
    bilinear_sum,
    branch_decompose,
    diagonal_gl_sum,
    littlewood_restriction,
)
from .lr import lr_coeff
from .oracle import duality_dim_check, oracle_decomposition
from .partitions import GLLabel, Partition, partitions_up_to

DEFAULT_MAX_SIZE = {pair: 5 for pair in PAIR_IDS} | {
    "o-diag": 6, "sp-diag": 6, "o-sum": 6, "sp-sum": 6, "gl-diag": 5}


@dataclass
class GridReport:
    pair: str
    cases: int = 0
    mismatches: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def line(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return f"{self.pair}: {self.cases} cases, {status}"


def partition_labels(max_size: int) -> list[Partition]:
    return list(partitions_up_to(max_size))


def gl_labels(max_total: int) -> list[GLLabel]:
    out = []
    for total in range(max_total + 1):
        for a in range(total + 1):
            for pp in partitions_up_to(a):
                if sum(pp) != a:
                    continue
                for mm in partitions_up_to(total - a):
                    if sum(mm) != total - a:
                        continue
                    out.append(GLLabel(pp, mm))
    return out


def _compare(report: GridReport, context, fmap: dict, omap: dict, compared):
    """Cell comparisons plus full support equality."""
    compared = set(compared)
    for key in set(fmap) | set(omap) | compared:
        f = fmap.get(key, 0)
        o = omap.get(key, 0)
        if key in compared:
            report.cases += 1
        if f != o:
            report.mismatches.append(
                {"context": context, "small": key, "formula": f, "oracle": o})


def _compare_cells(report: GridReport, context, fmap, omap, compared):
    """Cell comparisons only (support checked elsewhere)."""
    for key in compared:
        report.cases += 1
        f = fmap.get(key, 0)
        o = omap.get(key, 0)
        if f != o:
            report.mismatches.append(
                {"context": context, "small": key, "formula": f, "oracle": o})


def _run_groups(report, pair, big, by_rank, ranks_of, fmap_of):
    """Compare cell groups at their own minimal ranks; check supports at
    the largest rank in play (where both maps carry the full support)."""
    support_n = max(by_rank)
    for n, compared in sorted(by_rank.items()):
        ranks = ranks_of(n)
        fmap = fmap_of(n)
        omap = oracle_decomposition(pair, ranks, big)
        if n == support_n:
            _compare(report, (pair, ranks, big), fmap, omap, compared)
        else:
            _compare_cells(report, (pair, ranks, big), fmap, omap, compared)


def run_grid(pair: str, max_size: int | None = None) -> GridReport:
    """Formula-vs-oracle grid for one pair at the given size cap."""
    if max_size is None:
        max_size = DEFAULT_MAX_SIZE[pair]
    rule = PAIRS[pair]
    report = GridReport(pair)
    t0 = time.perf_counter()
    if rule.kind == "diag" and rule.big == "GL":
        _grid_gl_diag(report, max_size, pair)
    else:
        _grid(report, max_size, pair)
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _grid_gl_diag(report: GridReport, max_size: int, pair: str):
    labels = gl_labels(max_size)
    for mu in labels:
        for nu in labels:
            p, q = len(mu.plus), len(mu.minus)
            r, s = len(nu.plus), len(nu.minus)
            n = max(p + q + r + s, 1)
            compared = [
                lam for lam in labels
                if len(lam.plus) <= p + r and len(lam.minus) <= q + s
            ]
            fmap = branch_decompose(pair, (mu, nu), (n,))
            omap = oracle_decomposition(pair, (n,), (mu, nu))
            _compare(report, (pair, (n,), mu, nu), fmap, omap, compared)


def _grid_labels(family: str, max_size: int) -> list:
    return gl_labels(max_size) if family == "GL" else partition_labels(max_size)


def _big_lengths(rule: PairRule, big) -> tuple[int, int]:
    """The big side's share of its cells' depth (see _key_lengths)."""
    if rule.kind == "diag":
        mu, nu = big
        return len(mu) + len(nu), 0
    if rule.kind == "sum" and rule.small == "GL":
        return len(big.plus), len(big.minus)
    if rule.kind == "bilinear":
        return len(big.plus) + len(big.minus), 0
    return len(big), 0


def _key_lengths(rule: PairRule, key) -> tuple[int, int]:
    """A key's share of its cell's depth: the largest label length (or,
    for GL, ℓ(+)+ℓ(-)) among the cell's labels that the rule's hypotheses
    bound by the rank.  With (bp, bm) the big side's share and (kp, km)
    the key's, the depth is max(bp, kp) + max(bm, km); the second entries
    are ℓ(-) for a GL sum and 0 for every other rule."""
    if rule.kind == "sum":
        a, b = key
        if rule.small == "GL":
            return (max(len(a.plus), len(b.plus)),
                    max(len(a.minus), len(b.minus)))
        return max(len(a), len(b)), 0
    if rule.kind == "polarization":
        return max(len(key.plus), len(key.minus)), 0
    return len(key), 0


def _grid(report: GridReport, max_size: int, pair: str):
    """The grid of every pair but gl-diag: each big-side input's cells are
    compared at the smallest rank where the rule's hypotheses hold (for an
    orthogonal subgroup, no lower than the oracle-safe floor).  That rank
    is the cells' depth, or twice it where the hypotheses bound lengths by
    ⌊n/2⌋."""
    rule = PAIRS[pair]
    orthogonal = rule.small == "O"
    scale = 2 if orthogonal or rule.kind == "polarization" else 1
    floor = 2 * max_size + 2 if orthogonal else 1
    smalls = _grid_labels(rule.small, max_size)
    if rule.kind == "diag":  # the tensor factors are the big side
        bigs, keys = list(product(smalls, smalls)), smalls
    else:
        bigs = _grid_labels(rule.big, max_size)
        keys = list(product(smalls, smalls)) if rule.kind == "sum" else smalls
    # many keys share their lengths: rank each distinct one once per big
    lengths = [_key_lengths(rule, key) for key in keys]
    distinct = set(lengths)
    for big in bigs:
        bp, bm = _big_lengths(rule, big)
        rank_of = {
            (kp, km): max(scale * (max(bp, kp) + max(bm, km)), floor)
            for kp, km in distinct
        }
        by_rank: dict[int, list] = {}
        for key, kl in zip(keys, lengths):
            by_rank.setdefault(rank_of[kl], []).append(key)
        if rule.kind == "sum":  # no rank-dependent caps: one formula map
            fmap = branch_decompose(pair, big, None)
            _run_groups(report, pair, big, by_rank,
                        lambda n: (n, n), lambda n: fmap)
        else:
            _run_groups(report, pair, big, by_rank, lambda n: (n,),
                        lambda n: branch_decompose(pair, big, (n,)))


# ---------------------------------------------------------------------------
# other verification sweeps


def run_littlewood_consistency(max_size: int = 6) -> GridReport:
    """Restriction theorems against the bilinear-form rules with empty
    negative part, for both subgroup families."""
    report = GridReport("littlewood")
    t0 = time.perf_counter()
    for lam in partitions_up_to(max_size):
        for mu in partitions_up_to(sum(lam)):
            n = max(2 * sum(lam), 2 * len(mu), 2)
            lhs = littlewood_restriction(lam, mu, "O", n)
            rhs = bilinear_sum(GLLabel(lam, ()), mu, "rows")
            report.cases += 1
            if lhs != rhs:
                report.mismatches.append(
                    {"context": ("O", n, lam), "small": mu,
                     "formula": rhs, "oracle": lhs})
            n = max(sum(lam), len(mu), 1)
            lhs = littlewood_restriction(lam, mu, "Sp", n)
            rhs = bilinear_sum(GLLabel(lam, ()), mu, "columns")
            report.cases += 1
            if lhs != rhs:
                report.mismatches.append(
                    {"context": ("Sp", n, lam), "small": mu,
                     "formula": rhs, "oracle": lhs})
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def run_duality_sweeps(max_degree: int = 8) -> GridReport:
    """Graded-dimension identities for the multiplicity-free
    decompositions behind the rules."""
    report = GridReport("duality")
    t0 = time.perf_counter()

    def check(kind, d, **kw):
        report.cases += 1
        if not duality_dim_check(kind, d, **kw):
            report.mismatches.append(
                {"context": (kind, kw), "small": d,
                 "formula": "dimension mismatch", "oracle": ""})

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
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def run_padding_probe(max_size: int = 3) -> GridReport:
    """Rational tensor sums with the internal length caps padded by one
    beyond minimal.  Deviations are findings, not failures: callers should
    report the mismatch list rather than assert on it."""
    report = GridReport("padding-probe")
    t0 = time.perf_counter()
    labels = gl_labels(max_size)
    for mu in labels:
        for nu in labels:
            p, q = len(mu.plus), len(mu.minus)
            r, s = len(nu.plus), len(nu.minus)
            for lam in labels:
                if len(lam.plus) > p + r or len(lam.minus) > q + s:
                    continue
                report.cases += 1
                minimal = diagonal_gl_sum(lam, mu, nu, caps=(p, q, r, s))
                padded = diagonal_gl_sum(
                    lam, mu, nu, caps=(p + 1, q + 1, r + 1, s + 1))
                free = diagonal_gl_sum(lam, mu, nu)
                if not (minimal == padded == free):
                    report.mismatches.append({
                        "context": ("padding", mu, nu), "small": lam,
                        "formula": (minimal, padded), "oracle": free})
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def run_lr_spot_checks(count: int = 60, seed: int = 1) -> GridReport:
    """Random coefficients recomputed with the two factors' roles swapped
    (an independent search over a different skew shape)."""
    from .lr import lr_count_direct

    report = GridReport("lr-spot")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    pool = list(partitions_up_to(7))
    for _ in range(count):
        mu = rng.choice(pool)
        nu = rng.choice(pool)
        outer_pool = [p for p in partitions_up_to(sum(mu) + sum(nu))
                      if sum(p) == sum(mu) + sum(nu)]
        if not outer_pool:
            continue
        lam = rng.choice(outer_pool)
        report.cases += 1
        a = lr_count_direct(lam, mu, nu)
        b = lr_count_direct(lam, nu, mu)
        c = lr_coeff(lam, mu, nu)
        if not (a == b == c):
            report.mismatches.append(
                {"context": (lam, mu, nu), "small": lam,
                 "formula": c, "oracle": (a, b)})
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def run_all(max_size: int | None = None, seed: int = 1) -> list[GridReport]:
    """The grids for all ten pairs plus the auxiliary sweeps.  With no
    explicit cap each grid runs at its default size."""
    reports = []
    for pair in PAIR_IDS:
        cap = DEFAULT_MAX_SIZE[pair] if max_size is None else max_size
        reports.append(run_grid(pair, cap))
    reports.append(
        run_littlewood_consistency(6 if max_size is None else max_size))
    reports.append(run_duality_sweeps())
    reports.append(run_lr_spot_checks(seed=seed))
    reports.append(run_padding_probe())
    return reports
