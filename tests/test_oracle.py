import pytest
from hypothesis import example, given, settings, strategies as st

from branchkit import query
from branchkit.branching import BranchingQuery, RepLabel
from branchkit.characters import (
    GL,
    SO,
    GroupSpec,
    Sp,
    decompose_character,
    full_weight_support,
    irreducible_character,
    is_dominant,
    poly_add_scaled,
    poly_mul,
    restrict_character,
)
from branchkit.errors import (
    ExactnessError,
    InvalidLabel,
    NotACharacter,
    OutOfSafeRegime,
    StableRangeViolation,
)
from branchkit.oracle import (
    _restriction_remainder,
    _sum_remainder,
    _translate_so_map,
    decompose_tensor,
    dim_irrep,
    duality_dim_check,
    gl_weight,
    oracle_decomposition,
    oracle_multiplicity,
    so_weight,
    sp_weight,
    weight_to_gl_label,
)
from branchkit.pairs import PAIR_IDS, rule_of
from branchkit.partitions import GLLabel, partitions_up_to

E = ()


def L(plus, minus=()):
    return GLLabel(tuple(plus), tuple(minus))


def _slow_tensor(g, w1, w2):
    """chi_w1·chi_w2 multiplied out and decomposed by the greedy loop, as
    (weight, multiplicity) pairs in the loop's decreasing order."""
    product = poly_mul(full_weight_support(g, w1), full_weight_support(g, w2))
    return list(decompose_character(product, g).items())


class TestTranslation:
    def test_gl_weight_roundtrip(self):
        lab = L((2, 1), (1,))
        w = gl_weight(lab, 5)
        assert w == (2, 1, 0, 0, -1)
        assert weight_to_gl_label(w) == lab

    def test_so_weight_safety(self):
        assert so_weight((2, 1), 8) == (2, 1, 0, 0)
        with pytest.raises(OutOfSafeRegime):
            so_weight((1, 1), 4)
        with pytest.raises(OutOfSafeRegime):
            so_weight((1, 1, 1), 6)

    def test_sp_weight(self):
        assert sp_weight((2,), 3) == (2, 0, 0)
        with pytest.raises(OutOfSafeRegime):
            sp_weight((1, 1), 1)


class TestDims:
    def test_examples(self):
        assert dim_irrep(RepLabel("GL", 3, L((1,)))) == 3
        assert dim_irrep(RepLabel("Sp", 2, (1, 1))) == 5
        assert dim_irrep(RepLabel("O", 7, (1,))) == 7
        assert dim_irrep(RepLabel("O", 10, (1, 1))) == 45
        assert dim_irrep(RepLabel("GL", 4, L((1, 1), (1,)))) == 20

    def test_safe_regime_refusal(self):
        with pytest.raises(OutOfSafeRegime):
            dim_irrep(RepLabel("O", 4, (1, 1)))
        with pytest.raises(OutOfSafeRegime):
            dim_irrep(RepLabel("O", 6, (1, 1, 1)))


class TestOracleExamples:
    def test_spec_cases(self):
        assert oracle_multiplicity(query("o-diag", (8,), E, [(1,), (1,)])) == 1
        assert oracle_multiplicity(query("gl-in-sp", (6,), (1, 1), [L(E)])) == 0
        assert oracle_multiplicity(
            query("gl-sum", (2, 2), L((1,)), [L((1,)), L(E)])) == 1

    def test_safe_regime_refusal(self):
        with pytest.raises(OutOfSafeRegime):
            oracle_multiplicity(query("o-diag", (4,), (1, 1), [(1,), (1,)]))

    def test_fast_tensor_path_equals_slow_pipeline(self):
        # explicit poly product + greedy decomposition, against the
        # Brauer-Klimyk fold; the later cases put many fold terms on walls
        cases = [
            (GL(3), (2, 1, 0), (1, 1, 0)),
            (GL(3), (2, 0, -1), (1, 0, -1)),
            (Sp(2), (2, 1), (1, 1)),
            (Sp(3), (1, 1, 0), (1, 1, 1)),
            (SO(5), (2, 1), (1, 1)),
            (SO(7), (1, 1, 1), (2, 0, 0)),
            (SO(8), (1, 1, 1, 1), (1, 0, 0, 0)),
            (SO(8), (1, 1, 1, -1), (1, 1, 0, 0)),
            (Sp(3), (1, 0, 0), (1, 0, 0)),
            (Sp(4), (2, 0, 0, 0), (1, 1, 0, 0)),
            (SO(7), (1, 0, 0), (1, 0, 0)),
            (SO(9), (2, 0, 0, 0), (1, 1, 0, 0)),
            (SO(8), (1, 1, 1, 1), (1, 1, 1, -1)),
            (SO(8), (1, 1, 1, -1), (1, 1, 1, -1)),
        ]
        for g, w1, w2 in cases:
            fast = list(decompose_tensor(g, w1, w2).items())
            assert fast == _slow_tensor(g, w1, w2), (g, w1, w2)

    def test_polarization_oracle_example(self):
        # E^(1)_(O12) restricted to GL6 is the standard plus its dual
        dec = oracle_decomposition("gl-in-o", (6,), (1,))
        assert dec == {L((1,)): 1, L(E, (1,)): 1}

    def test_sum_oracle_splits_standard(self):
        dec = oracle_decomposition("o-sum", (6, 6), (1,))
        assert dec == {((1,), E): 1, (E, (1,)): 1}
        dec = oracle_decomposition("sp-sum", (3, 3), (1,))
        assert dec == {((1,), E): 1, (E, (1,)): 1}

    def test_sum_oracle_odd_ranks(self):
        # odd-odd orthogonal split exercises the leftover torus coordinate
        dec = oracle_decomposition("o-sum", (7, 5), (1,))
        assert dec == {((1,), E): 1, (E, (1,)): 1}
        dec = oracle_decomposition("o-sum", (7, 5), (1, 1))
        assert dec == {((1, 1), E): 1, ((1,), (1,)): 1, (E, (1, 1)): 1}


class TestDuality:
    def test_spec_examples(self):
        assert duality_dim_check("cauchy_gl", 2, n=2, p=2)
        assert duality_dim_check("sym_square", 3, k=1)
        assert duality_dim_check("o_duality", 2, n=5, k=2)

    def test_preconditions(self):
        with pytest.raises(StableRangeViolation):
            duality_dim_check("o_duality", 2, n=4, k=2)
        with pytest.raises(StableRangeViolation):
            duality_dim_check("sp_duality", 2, n=1, k=2)
        with pytest.raises(ValueError):
            duality_dim_check("nope", 2, n=1, k=1)


def test_oracle_decomposition_memoized_symmetric():
    a = oracle_decomposition("o-diag", (12,), ((2, 1), (1,)))
    b = oracle_decomposition("o-diag", (12,), ((1,), (2, 1)))
    assert a is b  # tensor factors commute and share one cache entry


def test_odd_orthogonal_ranks_agree_with_formulas():
    from branchkit.branching import branch_decompose

    for mu, nu, n in [((2,), (1,), 13), ((1, 1), (2, 1), 13),
                      ((2, 2), (1, 1, 1), 15)]:
        assert branch_decompose("o-diag", (mu, nu), (n,)) == \
            oracle_decomposition("o-diag", (n,), (mu, nu))
    for lam, n in [(L((2,), (1,)), 13), (L((2, 1), (1, 1)), 15)]:
        assert branch_decompose("o-in-gl", lam, (n,)) == \
            oracle_decomposition("o-in-gl", (n,), lam)
    for lam, n, m in [((2, 1), 9, 7), ((3,), 9, 9)]:
        assert branch_decompose("o-sum", lam, None) == \
            oracle_decomposition("o-sum", (n, m), lam)


def test_o_diag_self_associate_folding():
    # Λ³ ⊗ Λ³ over O_12 contains the self-associate label (1^6), which the
    # SO-side decomposition sees as a +/- pair of rank-6 weights; the
    # translation folds the pair into one O label
    dec = oracle_decomposition("o-diag", (12,), ((1, 1, 1), (1, 1, 1)))
    assert dec[(1, 1, 1, 1, 1, 1)] == 1
    from branchkit.branching import branch_decompose

    assert branch_decompose("o-diag", ((1, 1, 1), (1, 1, 1)), (12,)) == dec


def test_oracle_decomposition_is_read_only():
    q = query("o-in-gl", (6,), L((2,)), [(2,)])
    assert oracle_multiplicity(q) == 1
    dec = oracle_decomposition("o-in-gl", (6,), L((2,)))
    with pytest.raises(TypeError):
        dec[(2,)] = 5
    assert oracle_multiplicity(q) == 1


def test_orthogonal_rank_below_two_is_out_of_safe_regime():
    with pytest.raises(OutOfSafeRegime):
        oracle_multiplicity(query("o-diag", (1,), E, [(1,), E]))
    with pytest.raises(OutOfSafeRegime):
        dim_irrep(RepLabel("O", 1, E))
    for pair, ranks, big in [("o-diag", (1,), (E, E)), ("o-sum", (3, 1), E),
                             ("o-sum", (0, 4), E), ("o-in-gl", (1,), L(E)),
                             ("gl-in-o", (0,), E)]:
        with pytest.raises(OutOfSafeRegime):
            oracle_decomposition(pair, ranks, big)


def test_general_linear_and_symplectic_rank_zero_is_out_of_safe_regime():
    # GL_0 and Sp_0 have no maximal torus, like O_0 and O_1
    gl0 = L(E)
    with pytest.raises(OutOfSafeRegime):
        oracle_multiplicity(query("gl-diag", (0,), gl0, [gl0, gl0]))
    with pytest.raises(OutOfSafeRegime):
        oracle_multiplicity(query("sp-diag", (0,), E, [E, E]))
    for label in (RepLabel("GL", 0, gl0), RepLabel("Sp", 0, E)):
        with pytest.raises(OutOfSafeRegime):
            dim_irrep(label)
    for pair, ranks, big in [("o-in-gl", (0,), gl0), ("gl-sum", (0, 2), gl0),
                             ("sp-sum", (2, 0), E), ("gl-in-sp", (0,), E),
                             ("sp-in-gl", (0,), gl0)]:
        with pytest.raises(OutOfSafeRegime):
            oracle_decomposition(pair, ranks, big)
    assert dim_irrep(RepLabel("GL", 1, gl0)) == 1
    assert dim_irrep(RepLabel("Sp", 1, E)) == 1


# (pair, ranks, big labels): every factor label the oracle returns stays in
# the safe regime; o-sum covers odd-odd (a leftover torus coordinate),
# odd-even and even-even splits
DIRECT_SUM_CASES = [
    ("gl-sum", (1, 1), [L(E), L((1,)), L((1,), (1,)), L((2,), (1,))]),
    ("gl-sum", (2, 1), [L((1, 1)), L((2, 1)), L((2,), (1,))]),
    ("gl-sum", (2, 2), [L((1, 1), (1,)), L((2,), (1, 1))]),
    ("sp-sum", (1, 1), [E, (1,), (2,), (1, 1), (2, 1)]),
    ("sp-sum", (2, 1), [(1, 1), (2, 1), (3,), (1, 1, 1)]),
    ("o-sum", (3, 3), [E, (1,), (2,), (3,)]),
    ("o-sum", (5, 3), [(1,), (2,), (3,)]),
    ("o-sum", (5, 4), [(1,), (2,)]),
    ("o-sum", (4, 4), [(1,), (2,)]),
]


@pytest.mark.parametrize("pair,ranks,bigs", DIRECT_SUM_CASES)
def test_direct_sum_oracle_rebuilds_the_restriction(pair, ranks, bigs):
    # Σ m·χ_u⊗χ_v from alternating-sum characters, which share no code with
    # Freudenthal's recursion or the greedy loop
    n, m = ranks
    group, weight = {"gl": (GL, gl_weight), "o": (SO, so_weight),
                     "sp": (Sp, sp_weight)}[pair.split("-")[0]]
    for lam in bigs:
        dec = oracle_decomposition(pair, ranks, lam)
        assert dec, (pair, ranks, lam)
        rebuilt: dict = {}
        for (u, v), mult in dec.items():
            chi_u = irreducible_character(group(n), weight(u, n))
            chi_v = irreducible_character(group(m), weight(v, m))
            product = {eu + ev: cu * cv for eu, cu in chi_u.items()
                       for ev, cv in chi_v.items()}
            poly_add_scaled(rebuilt, product, mult)
        big = irreducible_character(group(n + m), weight(lam, n + m))
        assert rebuilt == restrict_character(big, pair, ranks), (pair, lam)


@st.composite
def _dominant_pairs(draw):
    # two dominant weights of one group; entries stay small so that the
    # multiplied-out product is cheap
    family = draw(st.sampled_from(["GL", "Sp", "SOOdd", "SOEven"]))
    rank = draw(st.integers(min_value=1, max_value=4))
    low = -2 if family == "GL" else 0
    pair = []
    for _ in range(2):
        w = sorted(draw(st.lists(st.integers(low, 2), min_size=rank,
                                 max_size=rank)), reverse=True)
        if family == "SOEven" and draw(st.booleans()):
            w[-1] = -w[-1]
        pair.append(tuple(w))
    return GroupSpec(family, rank), pair[0], pair[1]


@settings(max_examples=80, deadline=None)
@given(_dominant_pairs())
def test_fold_matches_multiplied_out_product(case):
    g, w1, w2 = case
    assert list(decompose_tensor(g, w1, w2).items()) == \
        _slow_tensor(g, w1, w2)


def _pad(plus, n, minus=()):
    return (tuple(plus) + (0,) * (n - len(plus) - len(minus))
            + tuple(-x for x in reversed(minus)))


def _stable_products():
    # short labels at ranks 5-7, the stable-range shapes, where most fold
    # terms lie on a wall; at ranks 5 and 6 SO(2n)'s weight with a
    # negative last entry is the smaller factor of its product with
    # (2, 1), so that the fold reads dominant weights with no zero entry
    for n in (5, 6, 7):
        for family in ("Sp", "SOOdd", "SOEven"):
            for a, b in (((1,), (2, 1)), ((1, 1), (2,)), ((2,), (1, 1, 1))):
                yield GroupSpec(family, n), _pad(a, n), _pad(b, n)
        for (ap, am), (bp, bm) in ((((1,), ()), ((2, 1), ())),
                                   (((1,), (1,)), ((2,), (1,))),
                                   (((1, 1), ()), ((1,), (2,)))):
            yield GL(n), _pad(ap, n, am), _pad(bp, n, bm)
        negative = (1,) * (n - 1) + (-1,)
        for b in ((1,), (1, 1), (2, 1)) if n < 7 else ((1,), (1, 1)):
            yield GroupSpec("SOEven", n), negative, _pad(b, n)


@pytest.mark.parametrize("g,w1,w2", list(_stable_products()))
def test_fold_matches_multiplied_out_product_in_the_stable_range(g, w1, w2):
    assert list(decompose_tensor(g, w1, w2).items()) == \
        _slow_tensor(g, w1, w2)


@pytest.mark.parametrize("g,w1,w2,caught", [
    (GL(3), (1, 0, 0), (1, 1, 0), {ExactnessError}),
    (Sp(2), (1, 0), (1, 1), {ExactnessError}),
    (SO(7), (1, 0, 0), (1, 1, 0), {ExactnessError, NotACharacter}),
    (SO(8), (1, 1, 1, 1), (1, 1, 1, -1), {ExactnessError, NotACharacter}),
    (Sp(4), (2, 1, 0, 0), (3, 1, 0, 0), {ExactnessError, NotACharacter}),
    (SO(12), (1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0),
     {ExactnessError, NotACharacter}),
    (GL(5), (1, 1, 0, 0, -1), (2, 0, 0, 0, -1),
     {ExactnessError, NotACharacter}),
])
def test_fold_checks_catch_a_dropped_weight(monkeypatch, g, w1, w2, caught):
    # the fold reads the smaller factor's dominant weights (here w1's);
    # with any one of them dropped, or its multiplicity lowered by one,
    # decompose_tensor raises
    import branchkit.oracle as oracle

    real = oracle.weight_multiplicities
    raised = set()
    for lost, m in real(g, w1).items():
        for loss in {m, 1}:
            def lossy(group, w, lost=lost, loss=loss):
                system = dict(real(group, w))
                if w == w1:
                    system[lost] -= loss
                return system

            monkeypatch.setattr(oracle, "weight_multiplicities", lossy)
            with pytest.raises((NotACharacter, ExactnessError)) as exc:
                decompose_tensor(g, w1, w2)
            raised.add(exc.type)
    assert raised == caught


def test_oracle_decomposition_with_too_few_ranks_is_an_invalid_label():
    with pytest.raises(InvalidLabel, match=r"o-sum takes ranks \(n, m\)"):
        oracle_decomposition("o-sum", (3,), (1,))


SUM_GROUPS = {"gl-sum": GL, "o-sum": SO, "sp-sum": Sp}


@st.composite
def _sum_splits(draw):
    """A direct-sum pair, its factor ranks n and m, and a dominant weight
    of the big group with at most three nonzero entries, each of absolute
    value at most 2, so that the weight system stays small."""
    pair = draw(st.sampled_from(sorted(SUM_GROUPS)))
    low, high = (2, 7) if pair == "o-sum" else (1, 4)
    n, m = draw(st.integers(low, high)), draw(st.integers(low, high))
    g = SUM_GROUPS[pair](n + m)
    rank = g.torus_rank
    count = draw(st.integers(0, min(3, rank)))
    entries = draw(st.lists(st.integers(1, 2), min_size=count,
                            max_size=count))
    if pair == "gl-sum":
        cut = draw(st.integers(0, count))
        plus = sorted(entries[:cut], reverse=True)
        minus = sorted((-x for x in entries[cut:]), reverse=True)
        w = plus + [0] * (rank - count) + minus
    else:
        w = sorted(entries, reverse=True) + [0] * (rank - count)
        if g.family == "SOEven" and w and w[-1] and draw(st.booleans()):
            w[-1] = -w[-1]
    return pair, n, m, tuple(w)


@settings(max_examples=60, deadline=None)
@given(_sum_splits())
# odd-odd orthogonal splits, with a zero entry to leave over, then with none
@example(("o-sum", 5, 3, (2, 1, 0, 0)))
@example(("o-sum", 3, 3, (2, 1, -1)))
# full-length SO(2n) factor weights, with either last sign
@example(("o-sum", 4, 4, (1, 1, 1, -1)))
@example(("o-sum", 4, 3, (2, 1, 1)))
# GL weights with negative entries
@example(("gl-sum", 2, 3, (2, 1, 0, -1, -1)))
@example(("gl-sum", 1, 1, (0, -2)))
def test_split_remainder_is_the_dominant_part_of_the_restriction(case):
    # the remainder read from splits of the big dominant weights equals the
    # restricted weight system, expanded in full, on the factor-dominant
    # pairs (u, v)
    pair, n, m, w = case
    group = SUM_GROUPS[pair]
    g, ga, gb = group(n + m), group(n), group(m)
    a = ga.torus_rank
    restricted = restrict_character(full_weight_support(g, w), pair, (n, m))
    expected = {(e[:a], e[a:]): c for e, c in restricted.items()
                if is_dominant(ga, e[:a]) and is_dominant(gb, e[a:])}
    assert _sum_remainder(g, w, ga, gb) == expected


@pytest.mark.parametrize("pair,ranks,big", [
    ("gl-sum", (1, 1), L(E, (-2, -2))),
    ("gl-sum", (2, 1), L((1, 2))),
    ("gl-diag", (2,), (L(E, (-2, -2)), L((1,)))),
    ("gl-diag", (3,), (L((1,)), L((1,), (1, 2)))),
    ("o-in-gl", (4,), L(E, (-2, -2))),
    ("o-in-gl", (5,), L((1, 2))),
])
def test_gl_labels_with_parts_that_are_no_partition_are_invalid(pair, ranks,
                                                                 big):
    # a negative or increasing part would be read as some other weight
    with pytest.raises(InvalidLabel, match="is not a partition"):
        oracle_decomposition(pair, ranks, big)


@pytest.mark.parametrize("pair,ranks,big", [
    ("gl-in-sp", (3,), (1, 2)),
    ("o-sum", (4, 4), (1, 2)),
    ("sp-diag", (2,), ((1, 2), (1,))),
])
def test_o_and_sp_labels_that_are_no_partition_are_invalid(pair, ranks, big):
    # the same check as for GL labels, before any weight is read as dominant
    with pytest.raises(InvalidLabel, match="is not a partition"):
        oracle_decomposition(pair, ranks, big)


def test_oracle_decomposition_reads_the_first_two_sum_ranks():
    assert oracle_decomposition("o-sum", (3, 3, 1), (1,)) == \
        oracle_decomposition("o-sum", (3, 3), (1,))


# (pair, the big group at rank n, the subgroup at rank n); the pair's ranks
# are (n,)
RESTRICTION_GROUPS = {
    "gl-in-o": (lambda n: SO(2 * n), GL),
    "gl-in-sp": (Sp, GL),
    "o-in-gl": (GL, SO),
    "sp-in-gl": (lambda n: GL(2 * n), Sp),
}


@st.composite
def _embedded_weights(draw):
    """An embedding pair, its rank n and a dominant weight of the big group
    with entries of absolute value at most 2, at most three of them
    nonzero, so that the weight system stays small."""
    pair = draw(st.sampled_from(sorted(RESTRICTION_GROUPS)))
    low, high = (2, 7) if pair == "o-in-gl" else (1, 3)
    n = draw(st.integers(low, high))
    g = RESTRICTION_GROUPS[pair][0](n)
    rank = g.torus_rank
    count = draw(st.integers(0, min(3, rank)))
    entries = draw(st.lists(st.integers(1, 2), min_size=count,
                            max_size=count))
    if g.family == "GL":
        cut = draw(st.integers(0, count))
        plus = sorted(entries[:cut], reverse=True)
        minus = sorted((-x for x in entries[cut:]), reverse=True)
        w = plus + [0] * (rank - count) + minus
    else:
        w = sorted(entries, reverse=True) + [0] * (rank - count)
        if g.family == "SOEven" and w[-1] and draw(st.booleans()):
            w[-1] = -w[-1]
    return pair, n, tuple(w)


@settings(max_examples=80, deadline=None)
@given(_embedded_weights())
# SO(2n) weights with a negative last entry and no zero entry
@example(("gl-in-o", 3, (1, 1, -1)))
@example(("gl-in-o", 2, (2, -1)))
# odd N: the middle entry is dropped
@example(("o-in-gl", 5, (2, 1, 0, 0, -1)))
@example(("o-in-gl", 3, (1, 1, 0)))
# even N: SO(N)'s last difference may be negative, down to minus the one
# before, and SO(2) has no bound at all
@example(("o-in-gl", 4, (1, 1, 0, -1)))
@example(("o-in-gl", 6, (2, 1, 0, 0, -1, -2)))
@example(("o-in-gl", 2, (2, -1)))
# GL weights with negative entries and repeated values
@example(("sp-in-gl", 2, (1, 0, -1, -2)))
@example(("sp-in-gl", 3, (1, 1, 0, 0, -1, -1)))
def test_embedding_remainder_is_the_dominant_part_of_the_restriction(case):
    # the remainder read from the orbits' subgroup-dominant vectors equals
    # the restricted weight system, expanded in full, on the subgroup's
    # dominant weights
    pair, n, w = case
    big_group, small_group = RESTRICTION_GROUPS[pair]
    g_big, g = big_group(n), small_group(n)
    restricted = restrict_character(full_weight_support(g_big, w), pair, (n,))
    expected = {d: c for d, c in restricted.items() if is_dominant(g, d)}
    assert _restriction_remainder(rule_of(pair).kind, g_big, w, g) == expected


@pytest.mark.parametrize("pair", PAIR_IDS)
def test_a_looked_up_label_that_is_no_partition_is_invalid(pair):
    # the label looked up in the decomposition is read through its
    # family's weight, as the labels the pipeline decomposes are
    rule = rule_of(pair)
    ranks = (6, 6) if rule.kind == "sum" else (6,)

    def label(family, parts):
        return L(parts) if family == "GL" else parts

    if rule.kind == "diag":
        q = query(pair, ranks, label(rule.big, (1, 2)),
                  [label(rule.small, E)] * 2)
    else:
        q = query(pair, ranks, label(rule.big, E),
                  [label(rule.small, (1, 2))]
                  + [label(rule.small, E)] * (rule.small_count - 1))
    with pytest.raises(InvalidLabel, match="is not a partition"):
        oracle_multiplicity(q)


def test_a_looked_up_label_too_long_for_its_rank_is_out_of_safe_regime():
    with pytest.raises(OutOfSafeRegime):
        oracle_multiplicity(query("gl-in-sp", (2,), E, [L((1,), (1, 1))]))
    with pytest.raises(OutOfSafeRegime):
        oracle_multiplicity(query("sp-diag", (1,), (1, 1), [E, E]))


@pytest.mark.parametrize("pair,ranks,big", [
    ("o-sum", (0, 4), (1, 2)),
    ("gl-in-o", (0,), (1, 2)),
    ("sp-diag", (0,), ((1, 2), E)),
    ("o-in-gl", (0,), L((1, 2))),
])
def test_no_partition_below_the_least_rank_is_invalid(pair, ranks, big):
    # the label is read before any group is built
    with pytest.raises(InvalidLabel, match="is not a partition"):
        oracle_decomposition(pair, ranks, big)


@pytest.mark.parametrize("label", [
    RepLabel("O", 1, (1, 2)), RepLabel("Sp", 0, (1, 2)),
    RepLabel("GL", 0, L((1, 2))),
])
def test_dim_irrep_of_no_partition_below_the_least_rank_is_invalid(label):
    with pytest.raises(InvalidLabel, match="is not a partition"):
        dim_irrep(label)


def test_an_unknown_family_is_an_invalid_label():
    q = BranchingQuery("o-in-gl", RepLabel("GL", 6, L((2,))),
                       (RepLabel("X", 6, E),))
    with pytest.raises(InvalidLabel, match="unknown family 'X'"):
        oracle_multiplicity(q)
    with pytest.raises(InvalidLabel, match="unknown family 'X'"):
        dim_irrep(RepLabel("X", 6, E))


def test_a_negative_rank_is_an_invalid_label():
    for pair, ranks, big in [("o-diag", (-1,), (E, E)),
                             ("gl-sum", (3, -1), L(E)),
                             ("sp-in-gl", (-1,), L(E))]:
        with pytest.raises(InvalidLabel, match="negative rank -1"):
            oracle_decomposition(pair, ranks, big)
    q = BranchingQuery("o-in-gl", RepLabel("GL", -1, L(E)),
                       (RepLabel("O", -1, E),))
    with pytest.raises(InvalidLabel, match="negative rank -1"):
        oracle_multiplicity(q)


def test_so_translation_refuses_an_unpaired_boundary_weight():
    # O_4 labels of length 2 appear as a +/- pair of SO_4 weights
    for raw in ({(1, -1): 1}, {(1, 1): 1}):
        with pytest.raises(NotACharacter, match="unpaired boundary weight"):
            _translate_so_map(raw, 4)
    assert _translate_so_map({(1, 1): 2, (1, -1): 2}, 4) == {(1, 1): 2}


def test_a_sum_factor_label_out_of_the_safe_regime_is_refused():
    # O_11 ⊃ O_2 × O_9: (1) restricts to a factor label (1) at rank 2
    with pytest.raises(OutOfSafeRegime,
                       match="factor label out of safe regime"):
        oracle_decomposition("o-sum", (2, 9), (1,))
