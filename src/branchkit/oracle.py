"""Brute-force branching oracle: characters in, multiplicities out.

Nothing here touches a Littlewood-Richardson coefficient.  Every answer is
obtained from exact torus characters: read the big group's character on
the subgroup's dominant chamber, decompose it into the subgroup's
irreducible characters, translate dominant weights back to labels.  The
pipeline reads the pair's rule in the pair table pairs.PAIRS (its kind,
families and rank scale), and one map per label family names the group,
the label's weight and the weight's label; no code here branches on a pair
id.  Restrictions and the direct-sum pairs are decomposed by the one greedy
pass characters.greedy_decompose, tensor products by the Brauer-Klimyk
fold; each is balanced against Weyl dimensions.  No pipeline expands a
weight system: each reads dominant weights (weight_multiplicities) only.
The greedy pass reads the subgroup-dominant part of the restricted
character (its remainder), built from the big group's dominant weights:
a direct sum's from splits of each weight's entries between the two
factors (_sum_remainder), an embedding's from the few vectors of each
weight's Weyl orbit that land in the subgroup's dominant chamber
(_restriction_remainder).  A direct sum's mass check reads each distinct
factor weight's dimension once, from one table when both factors are one
group (gl-sum, and o-sum and sp-sum at equal ranks).

Tensor products (the diagonal pairs) are decomposed without materializing
the product polynomial: Klimyk's formula folds the smaller factor's
weights onto the larger highest weight, reflecting each shifted weight
into the dominant chamber with its sign (decompose_tensor).  Only the
regular terms are visited: each dominant weight of the smaller factor is
spread over its Weyl orbit one position at a time, and a position that
lands on a wall ends the branch (_regular_terms).  A negative
multiplicity raises NotACharacter, and every decomposition is balanced
against Weyl dimensions, so a dropped or spurious constituent cannot pass
silently.  The fold's mass check reads each constituent's dimension from
the doubled vector y = 2(ν+ρ) it already holds, as Π<y, α> / Π<2ρ, α>
over the positive roots, with one denominator per call.

Each pipeline reads its labels' ranks from pairs.label_ranks.  Each entry
point reads every label it is given through its family's weight in
_FAMILIES (InvalidLabel for an unknown family) before it builds any group:
the weight checks that the label is a partition (InvalidLabel), then the
family's bound at the rank (OutOfSafeRegime): ℓ(λ+)+ℓ(λ-) <= n for GL, ℓ(λ) <= n for Sp and the safe
regime ℓ(λ) < n/2 for O, in which O labels are faithfully read through SO
characters.  Self-associate labels at ℓ(λ) = n/2 appear inside
decompositions as a +/- pair of SO weights with equal multiplicity; the
translation folds the pair into the single O label after checking that
equality, but no entry point takes such a label.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import product
from math import comb, inf
from operator import mul
from types import MappingProxyType
from typing import Callable, NamedTuple

from .characters import (
    GL,
    GroupSpec,
    SO,
    Sp,
    Weight,
    _root_product,
    dim_of_weight,
    dominant_rep,
    greedy_decompose,
    two_rho,
    weight_multiplicities,
    weyl_dims,
)
# not called here (the fold reads dominant weights, and no pipeline
# expands a weight system): bound only because perfbench's tracer wraps
# them as oracle attributes
from .characters import (decompose_character, full_weight_support,
                         restrict_character)
from .errors import (
    ExactnessError,
    InvalidLabel,
    NotACharacter,
    OutOfSafeRegime,
    StableRangeViolation,
)
from .pairs import (BranchingQuery, PairRule, RepLabel, label_ranks,
                    rule_for_ranks, rule_of, torus_rank)
from .partitions import (GLLabel, Partition, check_partitions, double_columns,
                         double_rows, partitions_of)

# ---------------------------------------------------------------------------
# label <-> weight translation


def gl_weight(label: GLLabel, n: int) -> Weight:
    check_partitions("GL", label)
    if not label.valid_for_rank(n):
        raise OutOfSafeRegime(f"GL label {label} invalid at rank {n}")
    mid = n - len(label.plus) - len(label.minus)
    return label.plus + (0,) * mid + tuple(-x for x in reversed(label.minus))


def weight_to_gl_label(w: Weight) -> GLLabel:
    plus = tuple(x for x in w if x > 0)
    minus = tuple(-x for x in reversed(w) if x < 0)
    return GLLabel(plus, minus)


def sp_weight(lam: Partition, rank: int) -> Weight:
    check_partitions("Sp", lam)
    if len(lam) > rank:
        raise OutOfSafeRegime(f"Sp label {lam} has more than {rank} parts")
    return tuple(lam) + (0,) * (rank - len(lam))


def so_weight(lam: Partition, n: int) -> Weight:
    """The SO_n highest weight of the O_n label λ; only faithful in the
    safe regime ℓ(λ) < n/2."""
    check_partitions("O", lam)
    if 2 * len(lam) >= n:
        raise OutOfSafeRegime(
            f"O label {lam} at n={n}: need ℓ(λ) < n/2 to read through SO")
    rank = torus_rank("O", n)
    return tuple(lam) + (0,) * (rank - len(lam))


def _strip(w: Weight) -> Partition:
    return tuple(x for x in w if x)


def _translate_so_map(raw: dict[Weight, int], n: int) -> dict[Partition, int]:
    """SO dominant weights -> O labels, folding self-associate +/- pairs."""
    out: dict[Partition, int] = {}
    for w, m in raw.items():
        if w[-1] < 0:
            partner = w[:-1] + (-w[-1],)
            if raw.get(partner, 0) != m:
                raise NotACharacter(
                    f"unpaired boundary weight {w} in an O_{n} decomposition")
            continue
        if w[-1] > 0:
            partner = w[:-1] + (-w[-1],)
            if n % 2 == 0 and raw.get(partner, 0) != m:
                raise NotACharacter(
                    f"unpaired boundary weight {w} in an O_{n} decomposition")
        out[_strip(w)] = m
    return out


def _labels(family: str, raw: dict[Weight, int], n: int) -> dict:
    """A decomposition's dominant weights read back as the family's labels
    at rank n."""
    if family == "O":
        return _translate_so_map(raw, n)
    read = _FAMILIES[family].read
    return {read(w): m for w, m in raw.items()}


def _reading_group(family: str, make: Callable[[int], GroupSpec], least: int):
    """The group make(n) through which the family's rank-n labels are read,
    refusing n < least: O_0, O_1, GL_0 and Sp_0 have no maximal torus to
    read labels on."""

    def group(n: int) -> GroupSpec:
        if n < least:
            raise OutOfSafeRegime(f"{family}_{n} labels need n >= {least} "
                                  f"to read through {make.__name__}")
        return make(n)

    return group


class _Family(NamedTuple):
    """How the oracle handles one label family: the connected group at
    rank n, the label's highest weight at rank n (the oracle's one label
    check), and a dominant weight's label (the O family folds
    self-associate pairs in _translate_so_map)."""

    group: Callable[[int], GroupSpec]
    weight: Callable
    read: Callable[[Weight], object]


_FAMILIES = {
    "GL": _Family(_reading_group("GL", GL, 1), gl_weight, weight_to_gl_label),
    "O": _Family(_reading_group("O", SO, 2), so_weight, _strip),
    "Sp": _Family(_reading_group("Sp", Sp, 1), sp_weight, _strip),
}


def _family(name: str) -> _Family:
    """The family's entry in _FAMILIES; InvalidLabel for any other name."""
    if name not in _FAMILIES:
        raise InvalidLabel(f"unknown family {name!r}")
    return _FAMILIES[name]


def dim_irrep(label: RepLabel) -> int:
    """Dimension by the Weyl product formula on the connected group."""
    family = _family(label.family)
    weight = family.weight(label.data, label.rank)
    return dim_of_weight(family.group(label.rank), weight)


# ---------------------------------------------------------------------------
# tensor-product decomposition by the Brauer-Klimyk fold


def _regular_terms(family: str, top: list, d: Weight, m: int, acc: dict):
    """Add m·det(w)·[w(x)] to acc for each distinct vector u of the Weyl
    orbit of the dominant weight d whose x = top + 2u is regular, where w
    takes x into the dominant chamber.  x is filled one position at a time
    from d's remaining entries (off GL, a magnitude and a sign), last
    position first, since top's smallest entries meet 0 and each other
    most often; a choice whose key (x_i, off GL |x_i|) is taken already,
    or is 0 for Sp and SOOdd, lies on a wall and is dropped at once.  The
    taken keys are kept sorted: past the insertion point of a new key lie
    the later positions' larger keys, the inversions it adds, and the keys
    read backwards are the dominant y = w(x) (SOEven: its nonzero last
    entry negated after an odd number of sign changes)."""
    off = family != "GL"
    zero_wall = family in ("Sp", "SOOdd")
    left = Counter(map(abs, d) if off else d)
    # SO(2n) changes an even number of signs: with no zero entry the
    # negated entries keep the parity of d's own negative last entry
    parity = (int(d[-1] < 0) if family == "SOEven" and 0 not in left
              else None)
    # each position's choices: (entry, key, u_i < 0, x_i < 0)
    choices = [[(v, abs(x) if off else x, u < 0, x < 0)
                for v in left for u in ((v, -v) if off and v else (v,))
                for x in (t + 2 * u,) if x or not zero_wall]
               for t in top]
    keys: list[int] = []

    def fill(i: int, inversions: int, flips: int, negatives: int):
        for v, key, flip, negative in choices[i]:
            if not left[v]:
                continue
            pos = bisect_left(keys, key)
            if pos < len(keys) and keys[pos] == key:
                continue
            inv = inversions + len(keys) - pos
            if i:
                left[v] -= 1
                keys.insert(pos, key)
                fill(i - 1, inv, flips + flip, negatives + negative)
                del keys[pos]
                left[v] += 1
                continue
            if parity is not None and (flips + flip) % 2 != parity:
                continue
            y = (keys[:pos] + [key] + keys[pos:])[::-1]
            sign = -1 if inv % 2 else 1
            if (negatives + negative) % 2:
                if zero_wall:  # each sign change reflects in 2e_i or e_i
                    sign = -sign
                elif off and y[-1]:
                    y[-1] = -y[-1]
            y = tuple(y)
            acc[y] = acc.get(y, 0) + sign * m

    fill(len(top) - 1, 0, 0, 0)


def decompose_tensor(g: GroupSpec, w1: Weight, w2: Weight) -> dict[Weight, int]:
    """Irreducible content of the product character chi_{w1}·chi_{w2}.

    Klimyk's formula folds the smaller factor's weights onto the larger
    highest weight λ: χ_λ·χ_μ = Σ_u m_μ(u) det(w) χ_{w(λ+u+ρ)-ρ}, over
    the weights u of μ, with w taking λ+u+ρ to the dominant chamber and
    terms on a wall dropped.  Only the regular terms are visited: each
    dominant weight of μ (weight_multiplicities) spreads over its Weyl
    orbit one position at a time, and a position that lands on a wall
    cuts the branch (_regular_terms), so no weight system or orbit is
    built.  The vectors are doubled so that SOOdd's half-integral ρ stays
    integral.  A negative multiplicity raises NotACharacter.  The result
    is balanced against Weyl dimensions before being returned, keys in
    decreasing lexicographic order: each constituent's dimension is read
    from its doubled vector y = 2(ν+ρ) as Π<y, α> / Π<2ρ, α>, the
    denominator built once per call, and a non-integer quotient raises
    ExactnessError.
    """
    d1, d2 = weyl_dims(g, (w1, w2))
    if d1 > d2:
        w1, w2, d1, d2 = w2, w1, d2, d1
    tr = two_rho(g)
    top = [2 * a + r for a, r in zip(w2, tr)]
    acc: dict[Weight, int] = {}
    for d, m in weight_multiplicities(g, w1).items():
        _regular_terms(g.family, top, d, m, acc)
    den = _root_product(g.family, tr, 0, 0)
    out: dict[Weight, int] = {}
    mass = 0
    for y in sorted(acc, reverse=True):
        m = acc[y]
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at {y}")
        if m:
            out[tuple((a - r) // 2 for a, r in zip(y, tr))] = m
            dim, rest = divmod(_root_product(g.family, y, 0, 0), den)
            if rest:
                raise ExactnessError(
                    "Weyl dimension formula gave a non-integer")
            mass += m * dim
    if mass != d1 * d2:
        raise ExactnessError(
            f"tensor mass check failed: {mass} != {d1}*{d2} on {g}")
    return out


# ---------------------------------------------------------------------------
# the direct-sum remainder, from splits of the big dominant weights


def _takes(values: Weight, k: int):
    """Each distinct way to take k entries from the decreasing tuple
    ``values``: (the entries taken, the entries left), both decreasing."""
    if k == 0 or k == len(values):
        yield values[:k], values[k:]
        return
    run = values.count(values[0])  # equal entries lead a decreasing tuple
    rest = values[run:]
    for j in range(max(0, k - len(rest)), min(run, k) + 1):
        for taken, left in _takes(rest, k - j):
            yield values[:j] + taken, values[j:run] + left


def _signs(part: Weight, free: bool) -> tuple:
    """part, and with ``free`` part with its nonzero last entry negated."""
    if free and part and part[-1]:
        return part, part[:-1] + (-part[-1],)
    return (part,)


def _sum_remainder(g_big: GroupSpec, big_weight: Weight, ga: GroupSpec,
                   gb: GroupSpec) -> dict[tuple[Weight, Weight], int]:
    """V(big) restricted to the torus of ga × gb (a leftover coordinate
    evaluated at 1), on the factor-dominant pairs (u, v).  Each dominant
    weight w adds its multiplicity at every split of its entries (off GL,
    their absolute values) into decreasing parts u and v and a leftover x,
    signed where the factors' dominance leaves a sign free (an SO(2n)
    part's last entry, the leftover), whose vector u+v+x W takes to w."""
    a, b = ga.torus_rank, gb.torus_rank
    free_u, free_v = ga.family == "SOEven", gb.family == "SOEven"
    # GL and Sp: the parts fill the big torus and no sign is free, so the
    # Weyl group takes every split back to w
    signed = g_big.family not in ("GL", "Sp")
    rem: dict[tuple[Weight, Weight], int] = {}
    for w, c in weight_multiplicities(g_big, big_weight).items():
        values = w if g_big.family == "GL" else tuple(map(abs, w))
        for u, rest in _takes(values, a):
            for v, x in _takes(rest, b):
                if not signed:
                    rem[u, v] = rem.get((u, v), 0) + c
                    continue
                for su, sv, sx in product(_signs(u, free_u),
                                          _signs(v, free_v), _signs(x, True)):
                    if dominant_rep(g_big, su + sv + sx) == w:
                        rem[su, sv] = rem.get((su, sv), 0) + c
    return rem


# ---------------------------------------------------------------------------
# the embedding remainder, from the orbits' subgroup-dominant vectors


def _sign_variants(g_big: GroupSpec, w: Weight):
    """The decreasing vectors in the Weyl orbit of the Sp or SO dominant
    weight w: for each distinct nonzero magnitude held k times, j of its k
    copies negated (0 <= j <= k).  SO(2n) negates an even number of
    entries, so with no zero entry the negated copies keep the parity of
    w's own negative last entry."""
    runs = [(a, k) for a, k in Counter(map(abs, w)).items() if a]
    zeros = (0,) * (len(w) - sum(k for _, k in runs))
    parity = int(w[-1] < 0) if g_big.family == "SOEven" and not zeros else None
    for js in product(*[range(k + 1) for _, k in runs]):
        if parity is not None and sum(js) % 2 != parity:
            continue
        head = [a for (a, k), j in zip(runs, js) for _ in range(k - j)]
        tail = [-a for (a, _), j in zip(runs, js) for _ in range(j)]
        yield tuple(head) + zeros + tuple(reversed(tail))


def _drop(values: Weight, x: int) -> Weight:
    """The decreasing tuple ``values`` with one copy of x taken out."""
    i = values.index(x)
    return values[:i] + values[i + 1:]


def _pair_differences(values: Weight, k: int, cap, free: bool,
                      memo: dict) -> dict[Weight, int]:
    """{d: the number of distinct ways to draw k pairs (a_i, b_i) in turn
    from the decreasing tuple ``values`` with differences d_i = a_i - b_i},
    over the dominant d: each d_i at most the one before (``cap`` for the
    first) and none negative, except that with ``free`` (SO(2n)) the last
    one's absolute value is what is bounded.  Distinct values are taken at
    each draw, so each distinct arrangement is counted once; an entry left
    over (an odd N's middle entry) is dropped.  ``memo`` holds the answers
    for the multisets left after the first draws."""
    key = (values, k, cap)
    out = memo.get(key)
    if out is not None:
        return out
    out = memo[key] = {}
    if not k:
        out[()] = 1
        return out
    last_free = free and k == 1
    for a in dict.fromkeys(values):
        rest = _drop(values, a)
        for b in dict.fromkeys(rest):
            d = a - b
            if d > cap or (d < 0 and not (last_free and -d <= cap)):
                continue
            for tail, m in _pair_differences(_drop(rest, b), k - 1, d, free,
                                             memo).items():
                image = (d,) + tail
                out[image] = out.get(image, 0) + m
    return out


def _restriction_remainder(kind: str, g_big: GroupSpec, big_weight: Weight,
                           g: GroupSpec) -> dict[Weight, int]:
    """V(big) restricted to the torus of the subgroup g, on g's dominant
    weights.  Each dominant weight w adds its multiplicity at the image of
    every distinct vector of its Weyl orbit whose image is g-dominant, and
    the orbit itself is never expanded.  A polarization shares the torus,
    so the images are w's decreasing sign variants; the bilinear form
    sends a vector e of GL_N's torus to (e_i - e_{N+1-i}) for i <= g's
    rank (the middle entry of an odd N is dropped), filled pair by pair
    from w's entries."""
    rem: dict[Weight, int] = {}
    memo: dict = {}
    free = g.family == "SOEven"
    for w, c in weight_multiplicities(g_big, big_weight).items():
        if kind == "polarization":
            images = dict.fromkeys(_sign_variants(g_big, w), 1)
        else:
            images = _pair_differences(w, g.torus_rank, inf, free, memo)
        for d, m in images.items():
            rem[d] = rem.get(d, 0) + c * m
    return rem


# ---------------------------------------------------------------------------
# the oracle pipeline, read from the pair's rule

_ORACLE_CACHE: dict = {}


def oracle_decomposition(pair: str, ranks: tuple, big) -> MappingProxyType:
    """Full decomposition map for one big representation, keyed by small
    label data ((GLLabel | Partition) or pairs thereof).  The map is a
    read-only view of the memo's entry."""
    if rule_for_ranks(pair, ranks).kind == "diag":
        big = tuple(sorted(big))  # tensor factors commute
    key = (pair, tuple(ranks), big)
    cached = _ORACLE_CACHE.get(key)
    if cached is not None:
        return cached
    out = MappingProxyType(_oracle_decomposition(pair, ranks, big))
    _ORACLE_CACHE[key] = out
    return out


def _sum_decomposition(rule: PairRule, big_n: int, ranks: tuple, lam) -> dict:
    n, m = ranks
    family = _FAMILIES[rule.big]
    wbig = family.weight(lam, big_n)
    g_big, ga, gb = family.group(big_n), family.group(n), family.group(m)

    def system(key):
        fr_u = weight_multiplicities(ga, key[0])
        fr_v = weight_multiplicities(gb, key[1])
        return {(uu, vv): cu * cv
                for uu, cu in fr_u.items() for vv, cv in fr_v.items()}

    raw = greedy_decompose(_sum_remainder(g_big, wbig, ga, gb), system)
    # each distinct factor weight once, and once for both factors when they
    # are one group (gl-sum; o-sum and sp-sum at equal ranks)
    us, vs = dict.fromkeys(u for u, _ in raw), dict.fromkeys(v for _, v in raw)
    both = us | vs
    if ga == gb:
        dim_u = dim_v = dict(zip(both, weyl_dims(ga, both)))
    else:
        dim_u = dict(zip(us, weyl_dims(ga, us)))
        dim_v = dict(zip(vs, weyl_dims(gb, vs)))
    mass = sum(c * dim_u[u] * dim_v[v] for (u, v), c in raw.items())
    if mass != dim_of_weight(g_big, wbig):
        raise ExactnessError("direct-sum mass check failed")
    if rule.big == "O":
        for u, v in raw:
            if 2 * len(_strip(u)) >= n or 2 * len(_strip(v)) >= m:
                raise OutOfSafeRegime(
                    f"factor label out of safe regime in o-sum: {u},{v}")
    label = {w: family.read(w) for w in both}
    return {(label[u], label[v]): c for (u, v), c in raw.items()}


def _oracle_decomposition(pair: str, ranks: tuple, big) -> dict:
    rule = rule_of(pair)
    big_n, small_ranks = label_ranks(pair, ranks)
    if rule.kind == "sum":
        return _sum_decomposition(rule, big_n, small_ranks, big)
    n = small_ranks[0]
    small = _FAMILIES[rule.small]
    if rule.kind == "diag":
        mu, nu = big
        w1, w2 = small.weight(mu, n), small.weight(nu, n)
        raw = decompose_tensor(small.group(n), w1, w2)
        return _labels(rule.small, raw, n)
    return _restriction_decomposition(rule, big_n, n, big)


def _restriction_decomposition(rule: PairRule, big_n: int, n: int,
                               big) -> dict:
    """Restriction along the embedding: polarization or bilinear form."""
    family = _FAMILIES[rule.big]
    wbig = family.weight(big, big_n)
    g_big, g = family.group(big_n), _FAMILIES[rule.small].group(n)
    rem = _restriction_remainder(rule.kind, g_big, wbig, g)
    raw = greedy_decompose(rem, lambda w: weight_multiplicities(g, w))
    mass = sum(map(mul, raw.values(), weyl_dims(g, raw)))
    if mass != dim_of_weight(g_big, wbig):
        raise ExactnessError("restriction mass check failed")
    return _labels(rule.small, raw, n)


def oracle_multiplicity(q: BranchingQuery) -> int:
    """Multiplicity by the character pipeline alone (no LR machinery).

    Every label is read through its family's weight, as the pipeline
    reads the labels it decomposes, after the ranks taken from the query's
    labels are read through pairs.label_ranks.
    """
    kind = rule_of(q.pair).kind
    label_ranks(q.pair, q.ranks)
    if kind == "diag":
        given, looked_up = tuple(s.data for s in q.small), (q.big,)
    else:
        given, looked_up = q.big.data, q.small
    for lab in looked_up:
        _family(lab.family).weight(lab.data, lab.rank)
    key = tuple(lab.data for lab in looked_up)
    dec = oracle_decomposition(q.pair, q.ranks, given)
    return dec.get(key if kind == "sum" else key[0], 0)


# ---------------------------------------------------------------------------
# graded-dimension duality identities


def _sym_dim(space_dim: int, degree: int) -> int:
    if degree == 0:
        return 1
    if space_dim == 0:
        return 0
    return comb(space_dim + degree - 1, degree)


def _gl_dim(lam: Partition, n: int) -> int:
    return dim_of_weight(GL(n), tuple(lam) + (0,) * (n - len(lam)))


def duality_dim_check(kind: str, d: int, n: int | None = None,
                      p: int | None = None, k: int | None = None) -> bool:
    """Degree-d dimension identity for one of the multiplicity-free
    decompositions underlying the branching machinery."""
    needs = {"cauchy_gl": {"n": n, "p": p}, "sym_square": {"k": k},
             "wedge_square": {"k": k}, "o_duality": {"n": n, "k": k},
             "sp_duality": {"n": n, "k": k}}.get(kind)
    if needs is None:
        raise ValueError(f"unknown duality kind {kind!r}")
    missing = [name for name, value in needs.items() if value is None]
    if missing:
        raise ValueError(
            f"duality kind {kind!r} needs {' and '.join(missing)}")
    if kind == "cauchy_gl":
        lhs = _sym_dim(n * p, d)
        rhs = sum(
            _gl_dim(lam, n) * _gl_dim(lam, p)
            for lam in partitions_of(d, max_length=min(n, p))
        )
        return lhs == rhs
    if kind == "sym_square":
        lhs = _sym_dim(k * (k + 1) // 2, d)
        rhs = sum(
            _gl_dim(double_rows(delta), k)
            for delta in partitions_of(d, max_length=k)
        )
        return lhs == rhs
    if kind == "wedge_square":
        lhs = _sym_dim(k * (k - 1) // 2, d)
        rhs = 0
        for delta in partitions_of(d):
            cols = double_columns(delta)
            if len(cols) <= k:
                rhs += _gl_dim(cols, k)
        return lhs == rhs
    if kind == "o_duality":
        if n < 2 * k + 1:
            raise StableRangeViolation(
                "duality", [f"o_duality needs n >= 2k+1: {n} < {2 * k + 1}"])
        lhs = _sym_dim(n * k, d)
        rhs = 0
        for t in range(d % 2, d + 1, 2):
            for lam in partitions_of(t, max_length=k):
                rhs += (dim_irrep(RepLabel("O", n, lam)) * _gl_dim(lam, k)
                        * _sym_dim(k * (k + 1) // 2, (d - t) // 2))
        return lhs == rhs
    # sp_duality
    if n < k:
        raise StableRangeViolation(
            "duality", [f"sp_duality needs n >= k: {n} < {k}"])
    lhs = _sym_dim(2 * n * k, d)
    rhs = 0
    for t in range(d % 2, d + 1, 2):
        for lam in partitions_of(t, max_length=min(n, k)):
            rhs += (dim_irrep(RepLabel("Sp", n, lam)) * _gl_dim(lam, k)
                    * _sym_dim(k * (k - 1) // 2, (d - t) // 2))
    return lhs == rhs
