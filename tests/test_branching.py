import itertools
from collections import Counter, defaultdict
from functools import cache
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from branchkit import (
    BranchingQuery,
    RepLabel,
    bilinear_multiplicity,
    branch_decompose,
    branching_multiplicity,
    diagonal_multiplicity,
    direct_sum_multiplicity,
    littlewood_restriction,
    polarization_multiplicity,
    query,
    validate_stable_range,
)
from branchkit import branching, lr
from branchkit.lr import lr_coeff
from branchkit.branching import (
    PAIR_IDS,
    PAIRS,
    _coproduct,
    _even_weights,
    decompose_range_violations,
    diagonal_gl_sum,
    diagonal_onsp_sum,
    range_violations,
    stable_range_violations,
    stable_rank,
)
from branchkit.errors import InvalidLabel, StableRangeViolation, UnknownPair
from branchkit.partitions import GLLabel, partitions_up_to, subpartitions
from branchkit.oracle import dim_irrep
from branchkit.pairs import label_ranks
from branchkit.verify import _grid_labels, gl_labels
from bruteforce import even_weights, is_even, skew_coproduct, sub_partitions

E = ()


def L(plus, minus=()):
    return GLLabel(tuple(plus), tuple(minus))


class TestValidation:
    def test_diag_examples(self):
        q = query("o-diag", (8,), (2,), [(1,), (1,)])
        assert validate_stable_range(q) is q
        with pytest.raises(StableRangeViolation) as exc:
            validate_stable_range(query("o-diag", (3,), (1,), [(1,), (1,)]))
        assert exc.value.rule_id == "2.1.2"

    def test_bilinear_o_example(self):
        with pytest.raises(StableRangeViolation):
            validate_stable_range(query("o-in-gl", (4,), L((2, 2, 1)), [E]))

    def test_bilinear_sp_needs_joint_length_bound(self):
        # each side has at most n parts, but the formula is only backed by
        # the derivation when the two lengths jointly fit in n
        q = query("sp-in-gl", (2,), L((1, 1), (1, 1)), [(1, 1)])
        assert stable_range_violations(q)
        q = query("sp-in-gl", (4,), L((1, 1), (1, 1)), [(1, 1)])
        assert not stable_range_violations(q)

    def test_label_invariants(self):
        with pytest.raises(InvalidLabel):
            RepLabel("O", 2, (1, 1, 1)).validate()  # columns exceed rank
        with pytest.raises(InvalidLabel):
            RepLabel("Sp", 1, (1, 1)).validate()
        with pytest.raises(InvalidLabel):
            RepLabel("GL", 1, L((1,), (1,))).validate()
        RepLabel("O", 3, (1, 1, 1)).validate()  # column sum 3 <= 3 is fine

    def test_unknown_pair(self):
        with pytest.raises(UnknownPair):
            query("bogus", (3,), E, [E])

    def test_decompose_range_violations(self):
        assert decompose_range_violations("o-diag", ((1,), (1,)), (8,)) == []
        assert decompose_range_violations("o-diag", ((1,), (1,)), (3,))
        assert decompose_range_violations("gl-sum", L((1,)), (1, 1)) == []


# one failing query per pair: (pair, ranks, big, small, the exact
# stable_range_violations list, the exact decompose_range_violations list
# for the decomposed side: the tensor factors for the diagonal pairs, the
# big label otherwise)
VIOLATION_TEXTS = [
    ("gl-diag", (2,), L((1, 1, 1), (1, 1)), [L((1,), (1,)), L((1,))],
     ["n >= p+q+r+s fails: 2 < 1+1+1+0", "ℓ(λ+) <= p+r fails: 3 > 2",
      "ℓ(λ-) <= q+s fails: 2 > 1"],
     ["n >= p+q+r+s fails: 2 < 3"]),
    ("o-diag", (3,), (1, 1), [(1,), (1,)],
     ["ℓ(λ) <= ⌊n/2⌋ fails: 2 > 1", "ℓ(μ)+ℓ(ν) <= ⌊n/2⌋ fails: 2 > 1"],
     ["ℓ(μ)+ℓ(ν) <= ⌊n/2⌋ fails: 2 > 1"]),
    ("sp-diag", (1,), (1, 1), [(1,), (1,)],
     ["ℓ(λ) <= n fails: 2 > 1", "ℓ(μ)+ℓ(ν) <= n fails: 2 > 1"],
     ["ℓ(μ)+ℓ(ν) <= n fails: 2 > 1"]),
    ("gl-sum", (1, 2), L((1, 1), (1,)), [L((1,)), L(E)],
     ["p+q <= min(n,m) fails: 2+1 > 1"],
     ["ℓ(λ+)+ℓ(λ-) <= min(n,m) fails: 3 > 1"]),
    ("o-sum", (2, 3), (1, 1), [(1, 1), (1, 1)],
     ["ℓ(λ) <= ½min(n,m) fails: 2 > 2/2", "ℓ(μ) <= ½min(n,m) fails: 2 > 2/2",
      "ℓ(ν) <= ½min(n,m) fails: 2 > 2/2"],
     ["ℓ(λ) <= ½min(n,m) fails: 2 > 2/2"]),
    ("sp-sum", (1, 2), (1, 1), [(1, 1), (1, 1)],
     ["ℓ(λ) <= min(n,m) fails: 2 > 1", "ℓ(μ) <= min(n,m) fails: 2 > 1",
      "ℓ(ν) <= min(n,m) fails: 2 > 1"],
     ["ℓ(λ) <= min(n,m) fails: 2 > 1"]),
    ("gl-in-o", (3,), (1, 1), [L((1, 1), (1, 1))],
     ["ℓ(λ) <= ⌊n/2⌋ fails: 2 > 1", "ℓ(μ+) <= ⌊n/2⌋ fails: 2 > 1",
      "ℓ(μ-) <= ⌊n/2⌋ fails: 2 > 1"],
     ["ℓ(λ) <= ⌊n/2⌋ fails: 2 > 1"]),
    ("gl-in-sp", (3,), (1, 1), [L((1, 1), (1, 1))],
     ["ℓ(λ) <= ⌊n/2⌋ fails: 2 > 1", "ℓ(μ+) <= ⌊n/2⌋ fails: 2 > 1",
      "ℓ(μ-) <= ⌊n/2⌋ fails: 2 > 1"],
     ["ℓ(λ) <= ⌊n/2⌋ fails: 2 > 1"]),
    ("o-in-gl", (3,), L((1,), (1,)), [(1, 1)],
     ["ℓ(λ+)+ℓ(λ-) <= n/2 fails: 2 > 3/2", "ℓ(μ) <= ⌊n/2⌋ fails: 2 > 1"],
     ["ℓ(λ+)+ℓ(λ-) <= n/2 fails: 2 > 3/2"]),
    ("sp-in-gl", (1,), L((1,), (1,)), [(1, 1)],
     ["ℓ(λ+)+ℓ(λ-) <= n fails: 2 > 1", "ℓ(μ) <= n fails: 2 > 1"],
     ["ℓ(λ+)+ℓ(λ-) <= n fails: 2 > 1"]),
]


@pytest.mark.parametrize("pair,ranks,big,small,stable,decompose",
                         VIOLATION_TEXTS, ids=[c[0] for c in VIOLATION_TEXTS])
def test_violation_texts(pair, ranks, big, small, stable, decompose):
    assert stable_range_violations(query(pair, ranks, big, small)) == stable
    side = tuple(small) if pair.endswith("diag") else big
    assert decompose_range_violations(pair, side, ranks) == decompose


@st.composite
def _same_lengths(draw):
    """A pair and two label layouts for it (big, small) in query form,
    every label of the second as long as its twin in the first."""
    pair = draw(st.sampled_from(PAIR_IDS))
    rule = PAIRS[pair]

    def lengths(family):
        if family == "GL":
            return draw(st.integers(0, 4)), draw(st.integers(0, 4))
        return draw(st.integers(0, 6))

    def part(k):
        rows = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
        return tuple(sorted(rows, reverse=True))

    def label(family, k):
        return GLLabel(part(k[0]), part(k[1])) if family == "GL" else part(k)

    big = lengths(rule.big)
    small = [lengths(rule.small) for _ in range(rule.small_count)]

    def layout():
        return (label(rule.big, big),
                tuple(label(rule.small, k) for k in small))

    return pair, layout(), layout()


def _sides(big, small):
    """Both sides, and each side alone."""
    return ((big, small), (big, None), (None, small))


def _ranks(pair, n, extra):
    # a sum rule's hypotheses read min(n, m)
    return (n, n + extra) if PAIRS[pair].kind == "sum" else (n,)


@settings(max_examples=300, deadline=None)
@given(_same_lengths(), st.integers(0, 3))
def test_stable_rank_is_least_rank_without_violations(case, extra):
    pair, (big, small), _ = case
    for b, s in _sides(big, small):
        clean = [n for n in range(40)
                 if not range_violations(pair, _ranks(pair, n, extra), b, s)]
        assert stable_rank(pair, b, s) == (clean[0] if clean else inf)


@settings(max_examples=300, deadline=None)
@given(_same_lengths(), st.integers(0, 20), st.integers(0, 3))
def test_range_violations_read_only_lengths(case, n, extra):
    # the verification grids rank each cell once per length profile
    pair, (big, small), (big2, small2) = case
    ranks = _ranks(pair, n, extra)
    for (b, s), (b2, s2) in zip(_sides(big, small), _sides(big2, small2)):
        assert range_violations(pair, ranks, b, s) == range_violations(
            pair, ranks, b2, s2)


def test_rank_free_hypotheses_hold_at_any_rank():
    # gl-diag's ℓ(λ±) caps read no rank: below 0 only n >= p+q+r+s fails
    assert range_violations("gl-diag", (-1,), L(E), (L(E), L(E))) == [
        "n >= p+q+r+s fails: -1 < 0+0+0+0"]


class TestDiagonal:
    def test_gl_example(self):
        q = query("gl-diag", (4,), L((2,)), [L((1,)), L((1,))])
        assert diagonal_multiplicity(q) == 1

    def test_gl_rational_cases(self):
        # C^n ⊗ (C^n)^* contains the trivial and the adjoint label once each
        q = query("gl-diag", (2,), L(E), [L((1,)), L(E, (1,))])
        assert diagonal_multiplicity(q) == 1
        q = query("gl-diag", (2,), L((1,), (1,)), [L((1,)), L(E, (1,))])
        assert diagonal_multiplicity(q) == 1

    def test_onsp_examples(self):
        assert diagonal_multiplicity(query("o-diag", (8,), E, [(1,), (1,)])) == 1
        assert diagonal_multiplicity(query("sp-diag", (2,), (1, 1), [(1,), (1,)])) == 1
        assert diagonal_multiplicity(query("o-diag", (8,), E, [E, E])) == 1
        assert diagonal_multiplicity(query("o-diag", (8,), (1,), [E, E])) == 0

    def test_symmetry_in_factors(self):
        # exhaustive for |mu|+|nu| <= 6, all three families
        for mu in partitions_up_to(6):
            for nu in partitions_up_to(6 - sum(mu)):
                for lam in partitions_up_to(sum(mu) + sum(nu)):
                    assert diagonal_onsp_sum(lam, mu, nu) == \
                        diagonal_onsp_sum(lam, nu, mu)

    def test_symmetry_in_factors_gl(self):
        labels = gl_labels(3)
        for mu in labels:
            for nu in labels:
                if mu.total_size() + nu.total_size() > 6:
                    continue
                n = (len(mu.plus) + len(mu.minus)
                     + len(nu.plus) + len(nu.minus)) or 1
                assert branch_decompose("gl-diag", (mu, nu), (n,)) == \
                    branch_decompose("gl-diag", (nu, mu), (n,))

    def test_gl_caps_match_free_sum(self):
        labels = [L((1,)), L((1,), (1,)), L((2, 1)), L(E, (2,))]
        for mu in labels:
            for nu in labels:
                caps = (len(mu.plus), len(mu.minus), len(nu.plus), len(nu.minus))
                for lam in labels:
                    free = diagonal_gl_sum(lam, mu, nu)
                    assert diagonal_gl_sum(lam, mu, nu, caps=caps) == free


class TestDirectSum:
    def test_examples(self):
        assert direct_sum_multiplicity(
            query("o-sum", (5, 5), (2,), [E, E])) == 1
        assert direct_sum_multiplicity(
            query("gl-sum", (2, 2), L((1,)), [L((1,)), L(E)])) == 1
        assert direct_sum_multiplicity(
            query("sp-sum", (3, 3), (1, 1), [E, E])) == 1

    def test_wrong_pair_dispatch(self):
        with pytest.raises(UnknownPair):
            direct_sum_multiplicity(query("o-diag", (8,), E, [E, E]))


class TestPolarization:
    def test_examples(self):
        assert polarization_multiplicity(
            query("gl-in-o", (6,), (1,), [L((1,))])) == 1
        assert polarization_multiplicity(
            query("gl-in-o", (6,), (1, 1), [L(E)])) == 1
        assert polarization_multiplicity(
            query("gl-in-sp", (6,), (1, 1), [L(E)])) == 0
        # the symplectic pairing uses even rows instead
        assert polarization_multiplicity(
            query("gl-in-sp", (6,), (2,), [L(E)])) == 1


class TestBilinear:
    def test_examples(self):
        assert bilinear_multiplicity(query("o-in-gl", (6,), L((2,)), [E])) == 1
        assert bilinear_multiplicity(
            query("o-in-gl", (6,), L((1,), (1,)), [E])) == 0
        assert bilinear_multiplicity(
            query("sp-in-gl", (3,), L((1, 1)), [E])) == 1
        assert bilinear_multiplicity(
            query("o-in-gl", (6,), L((1,), (1,)), [(1, 1)])) == 1


class TestLittlewood:
    def test_examples(self):
        assert littlewood_restriction((2,), E, "O", 6) == 1
        assert littlewood_restriction((1,), (1,), "O", 6) == 1
        assert littlewood_restriction((2, 1), (1,), "Sp", 4) == 1

    def test_preconditions(self):
        with pytest.raises(StableRangeViolation):
            littlewood_restriction((1, 1, 1), E, "O", 4)
        with pytest.raises(StableRangeViolation):
            littlewood_restriction((1, 1), E, "Sp", 1)
        with pytest.raises(InvalidLabel):
            littlewood_restriction((1,), E, "GL", 4)


class TestBranchDecompose:
    def test_bilinear_o_example(self):
        assert branch_decompose("o-in-gl", L((2,)), (6,)) == {(2,): 1, E: 1}

    def test_gl_diag_pieri(self):
        got = branch_decompose("gl-diag", (L((1,)), L((1,))), (4,))
        assert got == {L((2,)): 1, L((1, 1)): 1}

    def test_sp_diag_trivial(self):
        assert branch_decompose("sp-diag", (E, E), (2,)) == {E: 1}

    def test_bound_caps_sizes(self):
        # the bound caps each direct-sum factor, |λ+|+|λ-| of a GL label and
        # |λ| of any other
        def size(label):
            if isinstance(label, GLLabel):
                return label.total_size()
            if label and isinstance(label[0], tuple):  # two sum factors
                return max(size(label[0]), size(label[1]))
            return sum(label)

        for pair, big, ranks in [
            ("gl-diag", (L((2, 1), (1,)), L((1,), (2,))), (6,)),
            ("o-diag", ((2, 1), (2,)), (12,)),
            ("sp-diag", ((2, 1), (1, 1)), (5,)),
            ("gl-sum", L((2, 1), (2,)), (4, 4)),
            ("o-sum", (3, 2), (10, 10)),
            ("sp-sum", (2, 2, 1), (4, 4)),
            ("gl-in-o", (3, 2), (8,)),
            ("gl-in-sp", (2, 2, 1), (4,)),
            ("o-in-gl", L((2, 2)), (12,)),
            ("sp-in-gl", L((2, 1), (1, 1)), (4,)),
            ("sp-sum", (6, 4, 3, 2, 1), None),
            ("gl-in-sp", (5, 5, 3, 2, 1), (10,)),
        ]:
            full = branch_decompose(pair, big, ranks)
            assert max(size(k) for k in full) > 3, pair
            for bound in range(-1, 4):
                bounded = branch_decompose(pair, big, ranks, bound=bound)
                assert bounded == {k: v for k, v in full.items()
                                   if size(k) <= bound}, (pair, bound)

    def test_length_caps_hold_outside_the_stable_range(self):
        # where the big side breaks the rule's hypotheses, the map is the
        # uncapped one cut down to the labels valid at the given rank
        def fits(rule, label, n):
            if rule.kind == "polarization":
                return max(len(label.plus), len(label.minus)) <= n // 2
            if rule.small == "GL":
                return label.valid_for_rank(n)
            return len(label) <= (n // 2 if rule.small == "O" else n)

        for pair, big, n in [
            ("gl-diag", (L((2, 1), (1,)), L((1, 1), (2,))), 4),
            ("o-diag", ((2, 1), (1, 1)), 5),
            ("sp-diag", ((2, 1), (1, 1)), 2),
            ("gl-in-o", (2, 2, 1), 3),
            ("gl-in-sp", (2, 2, 1), 2),
            ("o-in-gl", L((2, 1), (1,)), 3),
            ("sp-in-gl", L((2, 1), (1, 1)), 2),
        ]:
            full = branch_decompose(pair, big, (50,))
            capped = {k: v for k, v in full.items()
                      if fits(PAIRS[pair], k, n)}
            assert capped != full, pair
            assert branch_decompose(pair, big, (n,)) == capped, pair

    def test_unsafe_dispatch(self):
        q = query("o-diag", (3,), (1,), [(1,), (1,)])
        with pytest.raises(StableRangeViolation):
            branching_multiplicity(q)
        assert branching_multiplicity(q, unsafe=True) == 0


def test_query_shapes():
    q = query("gl-sum", (2, 3), L((1,)), [L((1,)), L(E)])
    assert q.big.rank == 5
    assert q.small[0].rank == 2 and q.small[1].rank == 3
    q = query("gl-in-o", (4,), (1,), [L((1,))])
    assert q.big.family == "O" and q.big.rank == 8
    q = query("sp-in-gl", (3,), L((1, 1)), [E])
    assert q.big.rank == 6 and q.small[0].rank == 3
    with pytest.raises(InvalidLabel):
        BranchingQuery("o-diag", RepLabel("O", 8, (1,)),
                       (RepLabel("O", 8, (1,)),)).validate_labels()


@pytest.mark.parametrize("mode", ["rows", "columns"])
def test_even_weights_expand_only_the_even_skew_shapes(mode):
    # outer/2δ for each even 2δ, against one search of outer/α for every α
    # that keeps the even contents
    for outer in partitions_up_to(8):
        assert _even_weights(outer, mode) == even_weights(outer, mode), outer


def test_the_coproduct_read_from_one_pass_is_that_of_the_skew_shape():
    # gl-sum's Δ s_{λ/δ} = Σ_τ s_{λ/τ} ⊗ s_{τ/δ}, read from one pass over
    # τ ⊆ λ that leaves out each τ with |λ/τ| over the bound, against
    # Σ_γ c^λ_{δγ} Δ(s_γ) cut to the factors the bound allows
    for outer in partitions_up_to(7):
        for delta in sub_partitions(outer):
            full = skew_coproduct(outer, delta)
            for bound in (None, 0, 1, 2, 3):
                limit = inf if bound is None else bound
                passed = {tau: lr.skew_expand(outer, tau)
                          for tau in sub_partitions(outer)
                          if sum(outer) - sum(tau) <= limit}
                assert _coproduct(passed, outer, delta, limit) == {
                    (a, b): c for (a, b), c in full.items()
                    if max(sum(a), sum(b)) <= limit}, (outer, delta, bound)


@pytest.mark.parametrize("mode, sum_pair, polar_pair", [
    ("rows", "o-sum", "gl-in-sp"),
    ("columns", "sp-sum", "gl-in-o"),
])
def test_the_even_coproduct_is_the_sum_over_the_even_skew_shapes(
        mode, sum_pair, polar_pair):
    # Σ_τ s_{λ/τ} ⊗ E_τ against Σ_{2δ} Σ_γ c^λ_{2δ,γ} Δ(s_γ), read as the
    # direct-sum map (each factor within the bound) and as the
    # polarization map (|μ+| + |μ-| within it) at a rank whose length caps
    # never bind
    for outer in partitions_up_to(7):
        full: dict = defaultdict(int)
        for two_delta in sub_partitions(outer):
            if is_even(two_delta, mode):
                for key, c in skew_coproduct(outer, two_delta).items():
                    full[key] += c
        for bound in (None, 0, 1, 2, 3):
            limit = inf if bound is None else bound
            assert branch_decompose(sum_pair, outer, None, bound) == {
                (a, b): c for (a, b), c in full.items()
                if max(sum(a), sum(b)) <= limit}, (outer, bound)
            polar = branch_decompose(polar_pair, outer, (16,), bound)
            assert {(k.plus, k.minus): c for k, c in polar.items()} == {
                (a, b): c for (a, b), c in full.items()
                if sum(a) + sum(b) <= limit}, (outer, bound)


# the skew expansions a cold branch_decompose runs on perfbench's
# decompose-large labels, counted as memo entries: more work on these
# labels fails here.  Splitting every γ ⊆ λ by a full coproduct, after one
# search of λ/α for every α, ran 2,290, 3,487, 594, 1,685, 2,610, 162
# and 83.
@pytest.mark.parametrize("pair, big, ranks, entries", [
    ("o-sum", (5, 4, 3, 2, 1), (32, 32), 866),
    ("sp-sum", (6, 4, 3, 2, 1), (16, 16), 1176),
    ("gl-sum", L((4, 3, 2, 1), (3, 2, 1)), (16, 16), 428),
    ("gl-in-o", (6, 4, 3, 2), (8,), 713),
    ("gl-in-sp", (5, 5, 3, 2, 1), (10,), 1006),
    ("o-in-gl", L((5, 4, 3), (4, 3)), (40,), 146),
    ("sp-in-gl", L((4, 3, 2, 1), (3, 2)), (15,), 67),
])
def test_a_cold_decomposition_fills_a_pinned_number_of_memo_entries(
        pair, big, ranks, entries):
    lr.clear_cache()
    branch_decompose(pair, big, ranks)
    assert lr.cache_size() == entries


def test_a_bound_skips_the_removed_shapes_that_leave_too_much():
    # under a bound no τ that leaves a factor too much is searched, nor a
    # 2δ that leaves too much in τ, nor λ/τ when no 2δ ⊆ τ is left.  The
    # bound-2 sp-sum call fills 8 memo entries against the unbounded
    # call's 1,176 above; the bound-2 gl-sum call 18 and the bound-6 gl-in-o
    # call 55.  Walking every τ ⊇ 2δ (or ⊇ δ) for each 2δ (δ) that left the
    # factors room filled 23, 31 and 55.  The bound-2 gl-in-sp call fills
    # none
    for pair, big, ranks, bound, size, entries in [
        ("sp-sum", (6, 4, 3, 2, 1), None, 2, 4, 8),
        ("gl-sum", L((4, 3, 2, 1), (3, 2, 1)), None, 2, 4, 18),
        ("gl-in-o", (6, 4, 3, 2), (8,), 6, 36, 55),
        ("gl-in-sp", (5, 5, 3, 2, 1), (10,), 2, 0, 0),
    ]:
        lr.clear_cache()
        assert len(branch_decompose(pair, big, ranks, bound)) == size, pair
        assert lr.cache_size() == entries, pair


@pytest.mark.parametrize("pair, big, ranks", [
    ("o-sum", (5, 4, 3, 2, 1), (32, 32)),
    ("sp-sum", (6, 4, 3, 2, 1), (16, 16)),
    ("gl-sum", L((4, 3, 2, 1), (3, 2, 1)), (16, 16)),
    ("gl-in-o", (6, 4, 3, 2), (8,)),
    ("gl-in-sp", (5, 5, 3, 2, 1), (10,)),
])
def test_a_decomposition_expands_each_shape_of_its_pass_once(
        monkeypatch, pair, big, ranks):
    # one pass over τ ⊆ λ (each of λ+ and λ- for gl-sum) expands every λ/τ
    # once, where a walk over τ for each removed δ expanded λ/τ once for
    # every δ ⊆ τ.  gl-sum's λ- = (3,2,1) is also a τ ⊆ λ+, whose s_{τ/δ}
    # the plus side's coproduct reads once more for each δ
    calls: Counter = Counter()
    expand = lr.skew_expand

    def counted(outer, inner):
        calls[outer, inner] += 1
        return expand(outer, inner)

    monkeypatch.setattr(branching, "skew_expand", counted)
    lr.clear_cache()
    branch_decompose(pair, big, ranks)
    for outer in big if pair == "gl-sum" else (big,):
        most = 2 if pair == "gl-sum" and outer == big.minus else 1
        counts = [calls[outer, tau] for tau in subpartitions(outer)]
        assert 1 <= min(counts) and max(counts) <= most, outer


def test_results_deterministic_under_threads():
    # the memo is a shared dict of immutable values; concurrent use may
    # duplicate work but never change an answer.  lr_coeff reads no memo,
    # so each triple is also read from its memoized skew expansion
    from concurrent.futures import ThreadPoolExecutor

    from branchkit.partitions import partitions_up_to

    triples = []
    for lam in partitions_up_to(8):
        for mu in partitions_up_to(sum(lam)):
            for nu in partitions_up_to(sum(lam) - sum(mu)):
                if sum(mu) + sum(nu) == sum(lam):
                    triples.append((lam, mu, nu))
    def both(t):
        lam, mu, nu = t
        return lr_coeff(*t), lr.skew_expand(lam, mu).get(nu, 0)

    serial = [both(t) for t in triples]
    assert all(a == b for a, b in serial)
    lr.clear_cache()
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(both, triples))
    assert parallel == serial


def test_query_with_too_few_ranks_is_an_invalid_label():
    with pytest.raises(InvalidLabel, match=r"o-sum takes ranks \(n, m\), "
                       r"got \(3,\)"):
        query("o-sum", (3,), E, [E, E])


def test_query_with_a_negative_rank_is_an_invalid_label():
    # the ranks are read when the query is built, before any label
    with pytest.raises(InvalidLabel, match="negative rank -1"):
        query("sp-in-gl", (-1,), L(E), [E])
    with pytest.raises(InvalidLabel, match="negative rank -1"):
        query("o-sum", (3, -1), E, [E, E])


def test_range_violations_with_too_few_ranks_is_an_invalid_label():
    with pytest.raises(InvalidLabel, match=r"takes ranks \(n, m\)"):
        range_violations("o-sum", (3,))


def test_branch_decompose_without_ranks_for_a_ranked_rule():
    # only the sum rules, which read no rank, accept ranks=None
    with pytest.raises(InvalidLabel, match=r"o-diag takes ranks \(n,\), "
                       r"got None"):
        branch_decompose("o-diag", ((1,), (1,)), None)


def test_branch_decompose_with_too_few_ranks_for_a_sum_rule():
    # a sum rule reads no rank, but ranks that are given must be (n, m)
    with pytest.raises(InvalidLabel, match=r"o-sum takes ranks \(n, m\), "
                       r"got \(3,\)"):
        branch_decompose("o-sum", (1,), (3,))
    assert branch_decompose("o-sum", (1,), (3, 3)) == \
        branch_decompose("o-sum", (1,), None)


@pytest.mark.parametrize("pair,big,ranks", [
    ("o-diag", ((1,), (1,)), (-1,)),
    ("o-in-gl", L((2,)), (-1,)),
    ("gl-sum", L((1,)), (-1, 2)),
])
def test_branch_decompose_refuses_a_negative_rank(pair, big, ranks):
    # as query and the oracle do, through pairs.label_ranks
    with pytest.raises(InvalidLabel, match="negative rank -1"):
        branch_decompose(pair, big, ranks)


@pytest.mark.parametrize("pair,big,ranks", [
    ("gl-sum", L(E, (-2, -2)), None),
    ("o-in-gl", L((1, 2)), (6,)),
    ("gl-in-sp", (1, 2), (3,)),
    ("o-sum", (1, 2), None),
])
def test_branch_decompose_refuses_big_labels_that_are_no_partition(pair, big,
                                                                   ranks):
    with pytest.raises(InvalidLabel, match="is not a partition"):
        branch_decompose(pair, big, ranks)


def test_validate_labels_refuses_a_label_that_is_no_partition():
    q = query("gl-sum", (1, 1), L(E, (-2, -2)), [L(E), L(E)])
    with pytest.raises(InvalidLabel, match="is not a partition"):
        q.validate_labels()


@pytest.mark.parametrize("pair,ranks,big,small,expected", [
    ("o-diag", (4,), (1,), [(1,)], r"o-diag expects 2 small label\(s\), got 1"),
    ("o-in-gl", (6,), GLLabel((2,), ()), [(), (5,)],
     r"o-in-gl expects 1 small label\(s\), got 2"),
])
def test_query_with_the_wrong_number_of_small_labels_is_an_invalid_label(
        pair, ranks, big, small, expected):
    with pytest.raises(InvalidLabel, match=expected):
        query(pair, ranks, big, small)


@pytest.mark.parametrize("unsafe", [False, True])
def test_branching_multiplicity_validates_the_labels_once(monkeypatch, unsafe):
    calls = []
    validate = RepLabel.validate
    monkeypatch.setattr(RepLabel, "validate",
                        lambda self: (calls.append(self), validate(self))[1])
    q = query("o-in-gl", (6,), GLLabel((2,), ()), [(2,)])
    assert branching_multiplicity(q, unsafe=unsafe) == 1
    assert calls == [q.big, *q.small]


def _query_sides(rule, big, key):
    """A grid input and a map key in query layout, (big, small); a key of
    None leaves the small side out, for the big side's own hypotheses."""
    if rule.kind == "diag":  # the tensor factors are the grid's input
        return key, big
    if key is None or rule.kind == "sum":
        return big, key
    return big, (key,)


# per pair, the cells compared once more, one rank above their input's least
_ONE_RANK_ABOVE = {"gl-diag": 3_805, "gl-sum": 2_360, "o-diag": 306,
                   "sp-diag": 306, "o-sum": 170, "sp-sum": 170, "gl-in-o": 81,
                   "gl-in-sp": 81, "o-in-gl": 95, "sp-in-gl": 95}


@pytest.mark.parametrize("pair, size, entries, cells", [
    ("gl-diag", 3, 1_249, 3_805), ("gl-sum", 5, 898, 54_872),
    ("o-diag", 5, 5_081, 343), ("sp-diag", 5, 5_081, 343),
    ("o-sum", 6, 492, 343), ("sp-sum", 6, 492, 343),
    ("gl-in-o", 5, 198, 126), ("gl-in-sp", 5, 198, 126),
    ("o-in-gl", 5, 235, 126), ("sp-in-gl", 5, 235, 126)])
def test_every_per_cell_sum_matches_its_decomposition_map(pair, size, entries,
                                                          cells):
    # the per-cell sums behind branching_multiplicity, held against
    # branch_decompose on all ten pairs: every nonzero entry of each grid
    # input's map up to ``size``, decomposed at the input's least stable
    # rank (for an orthogonal subgroup no lower than the grid's floor
    # 2·size+2), each entry queried at that rank or at its cell's stable
    # rank if higher; then every cell up to size 3 (gl-sum: 4), zeros
    # included, at its own stable rank, and at one rank above its input's
    # least rank when the input has size <= 3
    rule = PAIRS[pair]
    ranks = (lambda n: (n, n)) if rule.kind == "sum" else (lambda n: (n,))

    def inputs(cap):
        smalls = _grid_labels(rule.small, cap)
        keys = (list(itertools.product(smalls, smalls))
                if rule.kind == "sum" else smalls)
        if rule.kind == "diag":
            return list(itertools.product(smalls, smalls)), keys
        return _grid_labels(rule.big, cap), keys

    def rank(big, key):
        return stable_rank(pair, *_query_sides(rule, big, key))

    def formula(big, key, n):
        return branching_multiplicity(
            query(pair, ranks(n), *_query_sides(rule, big, key)))

    @cache
    def decomposed(big, n):
        return branch_decompose(pair, big, ranks(n))

    floor = 2 * size + 2 if rule.small == "O" else 0
    found = 0
    for big in inputs(size)[0]:
        n = max(rank(big, None), floor)
        for key, c in decomposed(big, n).items():
            assert formula(big, key, max(n, rank(big, key))) == c, (
                pair, n, big, key)
            found += 1
    assert found == entries

    bigs, keys = inputs(4 if pair == "gl-sum" else 3)
    small_inputs = set(inputs(3)[0])
    compared = above = 0
    for big in bigs:
        least = rank(big, None)
        for key in keys:
            n = rank(big, key)
            if n == inf:
                continue
            # a cell first stable at least + 1 is compared there already
            padded = n == least and big in small_inputs
            for m in (n, n + 1) if padded else (n,):
                want = decomposed(big, m).get(key, 0)
                assert formula(big, key, m) == want, (pair, m, big, key)
            compared += 1
            above += padded
    assert (compared, above) == (cells, _ONE_RANK_ABOVE[pair])


def _sum_rule_labels():
    """Every partition of 8 or 9 with at most 3 parts."""
    return [lam for lam in partitions_up_to(9)
            if sum(lam) >= 8 and len(lam) <= 3]


@pytest.mark.parametrize("pair, bigs", [
    ("gl-sum", [L(lam) for lam in _sum_rule_labels()]
     + [L((3, 2, 1), (2, 1)), L((4, 2), (2, 1)), L((4, 3, 1), (1,))]),
    ("o-sum", _sum_rule_labels()), ("sp-sum", _sum_rule_labels())])
def test_sum_rules_conserve_dimension_at_unequal_ranks(pair, bigs):
    # at unequal ranks the two factors of a direct sum are told apart, so
    # a key written in the wrong order shows in the dimension count, as
    # it cannot at equal ranks: Σ m·dim μ·dim ν = dim λ at (n, n+1) and
    # (n+1, n), n the least stable rank of λ; for o-sum the least odd
    # rank above it, where every key is in dim_irrep's safe regime
    rule = PAIRS[pair]
    for big in bigs:
        n = stable_rank(pair, big) | (rule.small == "O")
        for ranks in ((n, n + 1), (n + 1, n)):
            big_rank, (r1, r2) = label_ranks(pair, ranks)
            total = sum(c * dim_irrep(RepLabel(rule.small, r1, mu))
                        * dim_irrep(RepLabel(rule.small, r2, nu))
                        for (mu, nu), c in
                        branch_decompose(pair, big, ranks).items())
            assert total == dim_irrep(RepLabel(rule.big, big_rank, big)), (
                pair, big, ranks)
    assert len(bigs) == (25 if rule.small == "GL" else 22)
