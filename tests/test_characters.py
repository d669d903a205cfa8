import pytest
from hypothesis import example, given, settings, strategies as st

from branchkit.characters import (
    FAMILIES,
    dominant_weights as weights_of_sizes,
    GL,
    SO,
    Sp,
    GroupSpec,
    decompose_character,
    dim_of_weight,
    dominant_rep,
    full_weight_support,
    greedy_decompose,
    irreducible_character,
    is_dominant,
    orbit_vectors,
    poly_mul,
    positive_roots,
    restrict_character,
    two_rho,
    weight_multiplicities,
    weyl_dims,
    _root_orbits,
    _root_product,
    _signed_orbit_terms,
)
from branchkit.errors import (InvalidLabel, NotACharacter, NotDominant,
                             UnknownPair)
from branchkit.partitions import partitions_up_to

from bruteforce import naive_schur_poly

ALL_SMALL_GROUPS = [
    GroupSpec(fam, r)
    for fam in ("GL", "Sp", "SOOdd", "SOEven")
    for r in (1, 2, 3)
]


def dominant_weights(g, max_size):
    """Small dominant test weights, including the sign and mixed-negative
    variants each family allows: for SO(2n) also with a nonzero last
    entry negated, for GL also shifted down by 1 and so that λ's last part
    lands on -1."""
    out = []
    for lam in partitions_up_to(max_size, max_length=g.torus_rank):
        w = tuple(lam) + (0,) * (g.torus_rank - len(lam))
        out.append(w)
        if g.family == "SOEven" and len(lam) == g.torus_rank and lam[-1]:
            out.append(w[:-1] + (-w[-1],))
        if g.family == "GL":
            for shift in {1, lam[-1] + 1} if lam else {1}:
                out.append(tuple(x - shift for x in w))
    return sorted(set(out))


@pytest.mark.parametrize("family,rank,message", [
    ("X", 1, "unknown family 'X'"),
    ("GL", 0, "torus rank must be positive"),
])
def test_group_spec_refuses_an_unknown_family_or_rank(family, rank, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GroupSpec(family, rank)


def test_root_system_sanity():
    assert positive_roots(GL(3)) == [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    assert len(positive_roots(Sp(3))) == 9
    assert len(positive_roots(SO(7))) == 9
    assert len(positive_roots(SO(8))) == 12
    assert two_rho(GL(3)) == (2, 0, -2)
    assert two_rho(Sp(2)) == (4, 2)
    assert two_rho(SO(5)) == (3, 1)
    assert two_rho(SO(6)) == (4, 2, 0)


def test_dominance_and_reps():
    g = GroupSpec("SOEven", 3)
    assert is_dominant(g, (2, 1, -1))
    assert not is_dominant(g, (2, -1, 1))
    assert dominant_rep(g, (-1, 2, 1)) == (2, 1, -1)
    assert dominant_rep(g, (-1, 2, -1)) == (2, 1, 1)
    assert dominant_rep(Sp(3), (-1, 2, -1)) == (2, 1, 1)
    assert dominant_rep(GL(3), (0, 2, -1)) == (2, 0, -1)


def test_character_examples():
    assert irreducible_character(GL(2), (1, 0)) == {(1, 0): 1, (0, 1): 1}
    assert irreducible_character(Sp(2), (1, 0)) == {
        (1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    chi = irreducible_character(Sp(2), (1, 1))
    assert len(chi) == 5 and sum(chi.values()) == 5
    # SO(3) vector representation
    assert irreducible_character(SO(3), (1,)) == {(1,): 1, (0,): 1, (-1,): 1}
    # SO(2) is a torus: characters are single monomials
    assert irreducible_character(SO(2), (3,)) == {(3,): 1}


def test_not_dominant_raises():
    with pytest.raises(NotDominant):
        irreducible_character(GL(2), (0, 1))
    with pytest.raises(NotDominant):
        irreducible_character(Sp(2), (1, -1))


def test_character_engines_agree():
    for g in ALL_SMALL_GROUPS:
        for w in dominant_weights(g, 4):
            assert irreducible_character(g, w) == full_weight_support(g, w), (g, w)


def test_gl_characters_are_schur_polynomials():
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(5, max_length=n):
            w = tuple(lam) + (0,) * (n - len(lam))
            assert irreducible_character(GL(n), w) == naive_schur_poly(lam, n)


def test_variable_inversion_sends_characters_to_duals():
    for g in ALL_SMALL_GROUPS:
        for w in dominant_weights(g, 4):
            chi = irreducible_character(g, w)
            inv = {tuple(-x for x in e): c for e, c in chi.items()}
            if g.family in ("Sp", "SOOdd"):
                assert inv == chi, (g, w)  # self-dual throughout
            elif g.family == "SOEven":
                # dual weight negates the last coordinate when the rank is
                # odd (an odd number of sign flips is outside the group)
                dual = w if g.torus_rank % 2 == 0 else w[:-1] + (-w[-1],)
                assert inv == irreducible_character(g, dual), (g, w)
            else:
                dual = tuple(-x for x in reversed(w))
                assert inv == irreducible_character(g, dual), (g, w)


def test_dimensions_match_character_values():
    for g in ALL_SMALL_GROUPS:
        for w in dominant_weights(g, 5):
            chi = irreducible_character(g, w)
            assert sum(chi.values()) == dim_of_weight(g, w), (g, w)


def test_dimensions_match_the_fraction_product_at_higher_rank():
    # the Weyl product taken root by root in exact fractions is the
    # reference for the integer product-then-divide
    from fractions import Fraction
    import random

    rng = random.Random(5)
    for fam in ("GL", "Sp", "SOOdd", "SOEven"):
        for rank in range(3, 13):
            g = GroupSpec(fam, rank)
            tr = two_rho(g)
            for _ in range(4):
                low = -3 if fam == "GL" else 0
                w = sorted((rng.randint(low, 5) for _ in range(rank)),
                           reverse=True)
                if fam == "SOEven" and rng.random() < 0.5:
                    w[-1] = -w[-1]
                expected = Fraction(1)
                for alpha in positive_roots(g):
                    num = sum((2 * x + r) * a for x, r, a in zip(w, tr, alpha))
                    den = sum(r * a for r, a in zip(tr, alpha))
                    expected *= Fraction(num, den)
                assert dim_of_weight(g, tuple(w)) == expected, (g, w)


def test_weyl_dims_takes_many_weights_in_one_call():
    # every dominant weight with entries at most 2 in absolute value; one
    # call mixes every zero block, so a denominator kept for one block and
    # read for another shows; each answer is its weight system's size
    from itertools import combinations_with_replacement

    for fam in FAMILIES:
        for rank in range(1, 7):
            g = GroupSpec(fam, rank)
            ws = [w for w in combinations_with_replacement(range(2, -3, -1), rank)
                  if is_dominant(g, w)]
            assert weyl_dims(g, ws) == [
                sum(full_weight_support(g, w).values()) for w in ws], g
            assert weyl_dims(g, ws[::-1]) == weyl_dims(g, ws)[::-1]
    assert weyl_dims(Sp(2), []) == []
    with pytest.raises(NotDominant):
        weyl_dims(Sp(2), [(1, 0), (0, 1)])


def test_the_dimension_read_from_a_doubled_vector_is_weyl_dims():
    # the fold reads each constituent's dimension from its doubled regular
    # vector y = 2λ+2ρ as Π<y, α> / Π<2ρ, α> over every positive root
    import random

    rng = random.Random(25)
    weights = {}
    for i in range(20_000):
        g = GroupSpec(FAMILIES[i % 4], 1 + i // 4 % 12)
        low = -6 if g.family == "GL" else 0
        w = sorted((rng.randint(low, 6) for _ in range(g.torus_rank)),
                   reverse=True)
        if g.family == "SOEven" and rng.random() < 0.5:
            w[-1] = -w[-1]
        weights.setdefault(g, []).append(tuple(w))
    assert len(weights) == 48
    for g, ws in weights.items():
        tr = two_rho(g)
        den = _root_product(g.family, tr, 0, 0)
        read = []
        for w in ws:
            y = tuple(2 * x + r for x, r in zip(w, tr))
            dim, rest = divmod(_root_product(g.family, y, 0, 0), den)
            assert not rest, (g, w)
            read.append(dim)
        assert read == weyl_dims(g, ws), g


def test_weight_multiplicities_known_values():
    # adjoint of GL(3): zero weight has multiplicity 2
    mults = weight_multiplicities(GL(3), (1, 0, -1))
    assert mults[(0, 0, 0)] == 2
    assert mults[(1, 0, -1)] == 1
    # Sp(4) fundamental (1,1): zero weight multiplicity 1
    assert weight_multiplicities(Sp(2), (1, 1))[(0, 0)] == 1
    # SO(5) adjoint (1,1): dimension 10, zero weight multiplicity 2
    m = weight_multiplicities(SO(5), (1, 1))
    assert m[(0, 0)] == 2 and dim_of_weight(SO(5), (1, 1)) == 10


def test_weight_multiplicities_refuses_a_weight_longer_than_the_rank():
    with pytest.raises(NotDominant,
                       match=r"^weight \(1, 1, 1\) longer than rank 2$"):
        weight_multiplicities(GL(2), (1, 1, 1))


def test_weight_multiplicities_is_read_only():
    # the memo's entry is handed out as a view: writing to it would change
    # every later answer that reads this irreducible
    mults = weight_multiplicities(GL(3), (1, 0, -1))
    with pytest.raises(TypeError):
        mults[(0, 0, 0)] = 7
    assert sum(full_weight_support(GL(3), (1, 0, -1)).values()) == 8


def test_irreducible_character_is_read_only():
    # the quotient's memo entry is handed out as a view, as Freudenthal's is
    chi = irreducible_character(GL(2), (1, 0))
    with pytest.raises(TypeError):
        chi[(1, 0)] = 5
    assert irreducible_character(GL(2), (1, 0)) == {(1, 0): 1, (0, 1): 1}


def test_orbit_vectors_signed_counts():
    assert sorted(orbit_vectors(GL(3), (2, 1, 0))) == sorted(
        {(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2)})
    assert len(list(orbit_vectors(Sp(2), (1, 1)))) == 4
    # D3 orbit of (1,1,1): even sign flips only, 4 vectors
    assert len(list(orbit_vectors(GroupSpec("SOEven", 3), (1, 1, 1)))) == 4
    # a zero coordinate absorbs sign parity
    assert len(list(orbit_vectors(GroupSpec("SOEven", 3), (1, 1, 0)))) == 12


@st.composite
def group_and_dominant_weight(draw):
    g = GroupSpec(draw(st.sampled_from(FAMILIES)), draw(st.integers(1, 6)))
    raw = draw(st.lists(st.integers(-3, 3), min_size=g.torus_rank,
                        max_size=g.torus_rank))
    return g, dominant_rep(g, tuple(raw))


@settings(max_examples=120, deadline=None)
@given(group_and_dominant_weight())
@example((GroupSpec("SOEven", 1), (-2,)))
@example((GroupSpec("SOEven", 4), (3, 2, 1, -1)))
@example((GroupSpec("SOEven", 6), (2, 2, 1, 1, 1, -1)))
@example((GroupSpec("SOEven", 5), (2, 2, 1, 0, 0)))
@example((GroupSpec("SOOdd", 6), (3, 3, 2, 0, 0, 0)))
@example((GroupSpec("Sp", 6), (0, 0, 0, 0, 0, 0)))
@example((GroupSpec("GL", 6), (2, 1, 1, 0, 0, -2)))
def test_orbit_vectors_match_the_weyl_group(case):
    # brute force: the images of w under every Weyl group element
    g, w = case
    vectors = list(orbit_vectors(g, w))
    assert len(vectors) == len(set(vectors))
    assert set(vectors) == {e for e, _ in _signed_orbit_terms(g, w)}
    assert all(dominant_rep(g, v) == w for v in vectors)


def stabiliser_orbits_by_brute_force(g, mu):
    """{orbit: number of positive roots in it} over the orbits on the roots
    of the group generated by the simple reflections that fix mu, keeping
    the orbits with a positive member."""
    pos = positive_roots(g)
    roots = pos + [tuple(-x for x in a) for a in pos]
    sums = {tuple(x + y for x, y in zip(a, b)) for a in pos for b in pos}
    simple = [a for a in pos if a not in sums]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    fixing = [a for a in simple if dot(mu, a) == 0]
    out = {}
    seen = set()
    for start in roots:
        if start in seen:
            continue
        orbit, todo = {start}, [start]
        while todo:
            v = todo.pop()
            for a in fixing:
                c = 2 * dot(v, a) // dot(a, a)
                u = tuple(x - c * y for x, y in zip(v, a))
                if u not in orbit:
                    orbit.add(u)
                    todo.append(u)
        seen |= orbit
        count = sum(1 for v in orbit if v in pos)
        if count:
            out[frozenset(orbit)] = count
    return out


def assert_root_orbits(g, mu):
    expected = stabiliser_orbits_by_brute_force(g, mu)
    table = _root_orbits(g.family, mu)
    got = {}
    for alpha, count in table:
        assert alpha in positive_roots(g), (g, mu, alpha)
        orbit = next(o for o in expected if alpha in o)
        assert orbit not in got, (g, mu, alpha, "orbit taken twice")
        got[orbit] = count
    assert got == expected, (g, mu, table)


def test_root_orbits_match_the_stabiliser_by_brute_force():
    checked = 0
    for fam in FAMILIES:
        for rank in range(1, 8):
            g = GroupSpec(fam, rank)
            sizes = ([(p, q) for p in range(7) for q in range(7 - p)]
                     if fam == "GL" else range(7))
            for mu in weights_of_sizes(g, sizes):
                assert_root_orbits(g, mu)
                checked += 1
    assert checked > 1000


@settings(max_examples=60, deadline=None)
@given(group_and_dominant_weight())
@example((GroupSpec("SOEven", 4), (2, 1, 1, -1)))  # read through the flip
@example((GroupSpec("SOEven", 3), (2, 2, -2)))
@example((GroupSpec("SOEven", 4), (3, 1, 1, 0)))  # zero block of size 1
@example((GroupSpec("SOEven", 5), (2, 2, 1, 0, 0)))  # ... of size 2
@example((GroupSpec("SOEven", 5), (1, 1, 0, 0, 0)))  # ... of size 3
@example((GroupSpec("Sp", 4), (2, 1, 0, 0)))
@example((GroupSpec("SOOdd", 5), (1, 1, 0, 0, 0)))
@example((GroupSpec("GL", 5), (1, 1, 0, -2, -2)))  # GL, negative entries
@example((GroupSpec("GL", 4), (-1, -1, -1, -3)))
def test_root_orbits_cover_every_positive_root(case):
    g, mu = case
    assert_root_orbits(g, mu)
    assert sum(c for _, c in _root_orbits(g.family, mu)) == len(
        positive_roots(g))


@st.composite
def group_and_small_weight(draw):
    """Rank 4 or 5, with weights small enough that the alternating-sum
    quotient stays quick off GL."""
    fam = draw(st.sampled_from(FAMILIES))
    rank = draw(st.integers(4, 5))
    low = -2 if fam == "GL" else 0
    raw = draw(st.lists(st.integers(low, 2), min_size=rank, max_size=rank))
    if fam != "GL" and sum(raw) > (2 if rank == 5 else 4):
        raw = [min(x, 1) for x in raw[:2]] + [0] * (rank - 2)
    g = GroupSpec(fam, rank)
    if fam == "SOEven" and draw(st.booleans()):
        raw[-1] = -raw[-1]
    return g, dominant_rep(g, tuple(raw))


@settings(max_examples=25, deadline=None)
@given(group_and_small_weight())
@example((GroupSpec("SOEven", 4), (1, 1, 1, -1)))
@example((GroupSpec("Sp", 5), (1, 1, 0, 0, 0)))
@example((GroupSpec("GL", 5), (2, 1, 0, -1, -2)))
def test_freudenthal_matches_the_quotient_above_the_small_ranks(case):
    g, w = case
    chi = irreducible_character(g, w)
    assert weight_multiplicities(g, w) == {
        e: c for e, c in chi.items() if is_dominant(g, e)}


def _groups_and_sizes_up_to_4():
    """GL ranks 1-5 (sizes |λ+| + |λ-| <= 4), Sp ranks 1-4 and SO(2) to
    SO(9) (sizes up to 4)."""
    for n in range(1, 6):
        yield GL(n), [(p, s - p) for s in range(5) for p in range(s + 1)]
    for n in range(1, 5):
        yield Sp(n), range(5)
    for n in range(2, 10):
        yield SO(n), range(5)


def test_freudenthal_reads_every_weight_below_the_highest():
    # Freudenthal walks only the dominant μ with λ - μ in the positive root
    # cone and ends each root string at its first non-weight; the quotient
    # reads every weight with no such assumption
    count = 0
    for g, sizes in _groups_and_sizes_up_to_4():
        for w in weights_of_sizes(g, sizes):
            chi = irreducible_character(g, w)
            assert weight_multiplicities(g, w) == {
                e: c for e, c in chi.items() if is_dominant(g, e)}, (g, w)
            count += 1
    assert count == 263


def test_greedy_decompose_is_one_descending_pass():
    def system(w):
        return weight_multiplicities(GL(2), w)

    # V(2,0) holds (1,1) once: one copy is left, and none in the second
    assert greedy_decompose({(2, 0): 1, (1, 1): 2}, system) == {
        (2, 0): 1, (1, 1): 1}
    assert greedy_decompose({(1, 1): 1, (2, 0): 1}, system) == {(2, 0): 1}
    with pytest.raises(NotACharacter, match="negative multiplicity -1"):
        greedy_decompose({(2, 0): 1, (1, 1): 0}, system)
    with pytest.raises(NotACharacter, match=r"weight \(1, 1\) of the "
                       r"constituent \(2, 0\) is not in the remainder"):
        greedy_decompose({(2, 0): 1}, system)


def test_decompose_character_roundtrip():
    import random

    rng = random.Random(7)
    for g in ALL_SMALL_GROUPS:
        weights = dominant_weights(g, 3)
        for _ in range(5):
            combo = {}
            chosen = rng.sample(weights, min(3, len(weights)))
            for w in chosen:
                combo[w] = rng.randint(1, 3)
            chi = {}
            for w, m in combo.items():
                for e, c in full_weight_support(g, w).items():
                    chi[e] = chi.get(e, 0) + m * c
            dec = decompose_character(chi, g)
            assert dec == combo, (g, combo)
    assert decompose_character({}, GL(2)) == {}


@pytest.mark.parametrize("family", FAMILIES)
def test_decompose_rejects_a_change_off_the_dominant_chamber(family):
    # the rebuild compares whole polynomials: each change below leaves the
    # dominant sector as it was, so only that comparison can catch it
    g = GroupSpec(family, 3)
    chi = {}
    for w, m in (((2, 1, 0), 1), ((1, 0, 0), 2)):
        for e, c in full_weight_support(g, w).items():
            chi[e] = chi.get(e, 0) + m * c
    assert decompose_character(chi, g) == {(2, 1, 0): 1, (1, 0, 0): 2}
    off = next(e for e in sorted(chi) if not is_dominant(g, e))
    stray = (-9, 0, 0)
    assert stray not in chi and not is_dominant(g, stray)
    changed = dict(chi)
    changed[off] += 1
    deleted = dict(chi)
    del deleted[off]
    added = dict(chi)
    added[stray] = 1
    for bad in (changed, deleted, added):
        with pytest.raises(NotACharacter):
            decompose_character(bad, g)


def test_decompose_refuses_an_exponent_of_another_rank():
    with pytest.raises(NotACharacter,
                       match=r"^exponent \(1, 0, 0\) does not match rank 2$"):
        decompose_character({(1, 0, 0): 1}, GL(2))


def test_decompose_rejects_junk():
    g = GL(2)
    with pytest.raises(NotACharacter):
        decompose_character({(1, 0): 1}, g)  # missing the (0,1) orbit term
    with pytest.raises(NotACharacter):
        decompose_character({(0, 0): -1}, g)
    with pytest.raises(NotACharacter):
        decompose_character({(0, 1): 1}, g)  # no dominant weight in support


def test_restrict_character_examples():
    # diagonal GL(2): s1(x)s1(y) at y=x
    chi = poly_mul({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1},
                   {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
    assert restrict_character(chi, "gl-diag", (2,)) == {
        (2, 0): 1, (1, 1): 2, (0, 2): 1}
    # bilinear O2 in GL2
    assert restrict_character({(1, 0): 1, (0, 1): 1}, "o-in-gl", (2,)) == {
        (1,): 1, (-1,): 1}
    # polarization: identity re-read
    chi_sp = irreducible_character(Sp(2), (1, 0))
    assert restrict_character(dict(chi_sp), "gl-in-sp", (2,)) == chi_sp
    # odd orthogonal bilinear folding has a middle variable at 1
    chi_gl3 = irreducible_character(GL(3), (1, 0, 0))
    assert restrict_character(dict(chi_gl3), "o-in-gl", (3,)) == {
        (1,): 1, (0,): 1, (-1,): 1}
    with pytest.raises(UnknownPair):
        restrict_character({}, "nope", (2,))


def test_restrict_character_refuses_a_character_off_the_product_torus():
    # gl-diag at n = 2 reads characters of GL_2 × GL_2, on four variables
    with pytest.raises(ValueError, match="^character does not live on the "
                       "product torus$"):
        restrict_character({(1, 0): 1}, "gl-diag", (2,))


@pytest.mark.parametrize("ranks,message", [
    ((-5,), "negative rank -5"),
    ((), r"gl-in-o takes ranks \(n,\), got \(\)"),
])
def test_restrict_character_reads_the_ranks_of_a_polarization(ranks,
                                                              message):
    # the polarizations copy the character, but still check their ranks
    with pytest.raises(InvalidLabel, match=message):
        restrict_character({(1, 0): 1}, "gl-in-o", ranks)


def test_restriction_decomposes_consistently():
    # C^4 ⊗ C^4 as a diagonal GL(4) module: full slow pipeline
    g = GL(4)
    std = irreducible_character(g, (1, 0, 0, 0))
    big = {}
    for e1, c1 in std.items():
        for e2, c2 in std.items():
            key = e1 + e2
            big[key] = big.get(key, 0) + c1 * c2
    restricted = restrict_character(big, "gl-diag", (4,))
    dec = decompose_character(restricted, g)
    assert dec == {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1}
