"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass lines.  Everything is exact integer arithmetic; there are no numeric
tolerances to tune.
"""

from math import prod

import pytest

from branchkit.branching import PAIR_IDS, PAIRS, branch_decompose
from branchkit.characters import (
    GL,
    GroupSpec,
    decompose_character,
    full_weight_support,
    irreducible_character,
    poly_mul,
    two_rho,
)
from branchkit.characters import _alternating_sum  # self-check needs the pieces
from branchkit.lr import lr_coeff, lr_count_direct, tensor_expand
from branchkit.oracle import dim_irrep
from branchkit.branching import RepLabel
from branchkit.pairs import label_ranks
from branchkit.partitions import (
    GLLabel,
    conjugate,
    contains,
    partitions_of,
    partitions_up_to,
)
from branchkit.verify import (
    DEFAULT_MAX_SIZE,
    gl_labels,
    partition_labels,
    run_duality_sweeps,
    run_grid,
    run_littlewood_consistency,
    run_padding_probe,
)


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


# --------------------------------------------------------------------------
# Criterion 1: formula equals oracle on exhaustive grids, one per rule


# every grid cell at DEFAULT_MAX_SIZE, so a grid that loses cells shows
GRID_CASES = {"gl-diag": 266_901, "o-diag": 27_000, "sp-diag": 27_000,
              "gl-sum": 2_685_619, "o-sum": 91_125, "sp-sum": 91_125,
              "gl-in-o": 11_205, "gl-in-sp": 11_205, "o-in-gl": 11_205,
              "sp-in-gl": 11_205}


@pytest.mark.parametrize("pair", PAIR_IDS)
def test_criterion_1_formula_vs_oracle(pair):
    report = run_grid(pair)
    _report(
        f"criterion 1 [{pair}]", report.ok,
        f"{report.cases} cases at size <= {DEFAULT_MAX_SIZE[pair]}, "
        f"{len(report.mismatches)} mismatches, {report.elapsed_ms} ms")
    assert report.ok, report.mismatches[:5]
    assert report.cases == GRID_CASES[pair]


# --------------------------------------------------------------------------
# Criterion 2: Littlewood restriction against the bilinear rules


def test_criterion_2_littlewood_consistency():
    report = run_littlewood_consistency()
    _report("criterion 2 [littlewood]", report.ok,
            f"{report.cases} cases, {len(report.mismatches)} mismatches")
    assert report.ok, report.mismatches[:5]


# --------------------------------------------------------------------------
# Criterion 3: LR engine properties


def test_criterion_3_lr_symmetry_and_conjugation():
    checked = 0
    for n in range(0, 11):
        for lam in partitions_of(n):
            clam = conjugate(lam)
            for k in range(0, n + 1):
                for mu in partitions_of(k):
                    if not contains(lam, mu):
                        continue
                    for nu in partitions_of(n - k):
                        a = lr_count_direct(lam, mu, nu)
                        b = lr_count_direct(lam, nu, mu)
                        assert a == b, (lam, mu, nu)
                        assert a == lr_coeff(
                            clam, conjugate(mu), conjugate(nu)), (lam, mu, nu)
                        checked += 1
    _report("criterion 3 [lr symmetry+conjugation]", True,
            f"{checked} triples with |λ| <= 10, exact")


def test_criterion_3_tensor_expand_vs_schur_products():
    g = GL(4)
    cases = 0
    for a in range(0, 9):
        for mu in partitions_of(a, max_length=4):
            chi_mu = irreducible_character(g, tuple(mu) + (0,) * (4 - len(mu)))
            for b in range(0, 9 - a):
                for nu in partitions_of(b, max_length=4):
                    chi_nu = irreducible_character(
                        g, tuple(nu) + (0,) * (4 - len(nu)))
                    product = poly_mul(chi_mu, chi_nu)
                    dec = decompose_character(product, g)
                    got = {
                        tuple(x for x in w if x): m for w, m in dec.items()}
                    want = {
                        lam: c
                        for lam, c in tensor_expand(mu, nu).items()
                        if len(lam) <= 4
                    }
                    assert got == want, (mu, nu)
                    cases += 1
    _report("criterion 3 [tensor vs schur product]", True,
            f"{cases} products with |μ|+|ν| <= 8 in 4 variables, exact")


# --------------------------------------------------------------------------
# Criterion 4: duality dimension identities


def test_criterion_4_duality_dimensions():
    report = run_duality_sweeps()
    _report("criterion 4 [duality dims]", report.ok,
            f"{report.cases} identities, {len(report.mismatches)} failures")
    assert report.ok, report.mismatches[:5]


# --------------------------------------------------------------------------
# Criterion 5: dimension conservation under full decompositions


def _conservation_cases(max_size=4):
    """(pair, big, ranks): every big-side input up to max_size, at a rank
    chosen per pair that holds all of its decomposition's keys."""
    parts = partition_labels(max_size)
    gls = gl_labels(max_size)
    for mu in parts:
        for nu in parts:
            n = max(2 * (sum(mu) + sum(nu)) + 2, 2 * (len(mu) + len(nu)))
            yield "o-diag", (mu, nu), (n,)
            k = max(len(mu) + len(nu), sum(mu) + sum(nu), 1)
            yield "sp-diag", (mu, nu), (k,)
    for mu in gls:
        for nu in gls:
            n = max(len(mu.plus) + len(mu.minus)
                    + len(nu.plus) + len(nu.minus), 1)
            n = max(n, mu.total_size() + nu.total_size())  # room for all keys
            yield "gl-diag", (mu, nu), (n,)
    for lam in gls:
        n = m = max(lam.total_size(), 1)
        yield "gl-sum", lam, (n, m)
        n = max(lam.total_size(), 1)
        yield "sp-in-gl", lam, (n,)
        n = max(2 * lam.total_size() + 2, 2)
        yield "o-in-gl", lam, (n,)
    for lam in parts:
        n = m = max(2 * sum(lam) + 2, 2)
        yield "o-sum", lam, (n, m)
        n = m = max(sum(lam), 1)
        yield "sp-sum", lam, (n, m)
        n = max(2 * len(lam), 1)
        yield "gl-in-o", lam, (n,)
        yield "gl-in-sp", lam, (n,)


def _conservation_dims(pair, big, ranks):
    """The big side's dimension, and a function giving each key's, read
    from the pair's rule and pairs.label_ranks: a diagonal pair's big side
    is its two tensor factors, a sum rule's key its two factor labels."""
    rule = PAIRS[pair]
    big_rank, small_ranks = label_ranks(pair, ranks)

    def dim(family, labels, ranks):
        return prod(dim_irrep(RepLabel(family, rank, label))
                    for rank, label in zip(ranks, labels))

    if rule.kind == "diag":
        big_dim = dim(rule.small, big, small_ranks)
    else:
        big_dim = dim(rule.big, (big,), (big_rank,))
    if rule.kind == "sum":
        return big_dim, lambda key: dim(rule.small, key, small_ranks)
    return big_dim, lambda key: dim(rule.small, (key,), small_ranks)


def test_criterion_5_dimension_conservation():
    cases = 0
    for pair, big, ranks in _conservation_cases(4):
        big_dim, small_dim = _conservation_dims(pair, big, ranks)
        dec = branch_decompose(pair, big, ranks)
        total = sum(mult * small_dim(key) for key, mult in dec.items())
        assert total == big_dim, (pair, big, ranks, total, big_dim)
        cases += 1
    _report("criterion 5 [dimension conservation]", True,
            f"{cases} decompositions with |big| <= 4, exact")


# --------------------------------------------------------------------------
# Criterion 6: character oracle self-checks


def _self_check_weights(g, max_size):
    out = []
    for lam in partitions_up_to(max_size, max_length=g.torus_rank):
        w = tuple(lam) + (0,) * (g.torus_rank - len(lam))
        out.append(w)
        if g.family == "SOEven" and len(lam) == g.torus_rank and lam[-1]:
            out.append(w[:-1] + (-w[-1],))
        if g.family == "GL" and lam:
            out.append(tuple(x - lam[-1] - 1 for x in w))
    return sorted(set(out))


def test_criterion_6_character_self_checks():
    groups = [GroupSpec(fam, r)
              for fam in ("GL", "Sp", "SOOdd", "SOEven")
              for r in (1, 2, 3)]
    checked = 0
    for g in groups:
        tr = two_rho(g)
        for w in _self_check_weights(g, 4):
            chi = irreducible_character(g, w)
            # zero-remainder division, re-verified by multiplying back
            if g.family == "SOOdd":
                num = _alternating_sum(
                    g, tuple(2 * x + r for x, r in zip(w, tr)))
                den = _alternating_sum(g, tr)
                doubled = {tuple(2 * x for x in e): c for e, c in chi.items()}
                assert poly_mul(doubled, den) == num, (g, w)
            else:
                rho = tuple(r // 2 for r in tr)
                num = _alternating_sum(
                    g, tuple(x + r for x, r in zip(w, rho)))
                den = _alternating_sum(g, rho)
                assert poly_mul(chi, den) == num, (g, w)
            # Weyl symmetry under the group's generators
            n = g.torus_rank
            for i in range(n - 1):
                swapped = {e[:i] + (e[i + 1], e[i]) + e[i + 2:]: c
                           for e, c in chi.items()}
                assert swapped == chi, (g, w)
            if g.family in ("Sp", "SOOdd"):
                assert {e[:-1] + (-e[-1],): c for e, c in chi.items()} == chi
            if g.family == "SOEven" and n >= 2:
                assert {e[:-2] + (-e[-2], -e[-1]): c
                        for e, c in chi.items()} == chi
            # greedy decomposition returns the point mass (and its internal
            # verification rebuilds the input from Freudenthal systems)
            assert decompose_character(chi, g) == {w: 1}, (g, w)
            checked += 1
    _report("criterion 6 [character self-checks]", True,
            f"{checked} irreducibles at rank <= 3, |weight| <= 4")


# --------------------------------------------------------------------------
# Criterion 7: parameter-padding invariance (probe; findings are reported,
# deviations do not fail the suite)


def test_criterion_7_padding_probe():
    report = run_padding_probe()
    detail = (f"{report.cases} sums compared at minimal vs padded caps; "
              f"{len(report.mismatches)} deviations")
    _report("criterion 7 [padding probe]", True, detail)
    for finding in report.mismatches:
        print("  FINDING:", finding)
    assert report.cases > 0
