"""Exact characters of the classical groups on a maximal torus.

Characters are sparse Laurent polynomials: dicts mapping integer exponent
vectors (length = torus rank) to integer coefficients, with no zero entries.
Two independent routes produce them:

  * irreducible_character: the alternating-sum quotient (numerator
    antisymmetrization divided by the Weyl denominator, exact polynomial
    division).  Self-checking — a nonzero remainder cannot slip through —
    but enumerates the full Weyl group, so it is for low rank.

  * weight_multiplicities + orbit expansion: Freudenthal's recursion on
    dominant weights.  Scales to the ranks the verification grids need.
    Its root sum runs over the orbits of each weight's stabiliser W_mu on
    the roots, one k-sum per orbit scaled by the number of positive roots
    in it (Moody and Patera, Bull. AMS 7 (1982) 237-242); the orbits are
    read in closed form from mu's blocks of equal entries (_root_orbits).
    orbit_vectors expands a dominant weight's Weyl orbit with itertools,
    with no recursion: each distinct entry (of the absolute values, off
    GL) but the most frequent takes a combination of the positions left
    free, the most frequent fills the rest, and itertools.product runs
    over the signs of the nonzero entries (SO(2n) with no zero entry: the
    first n-1, the last sign set by parity).  The memo _SUPPORT_CACHE
    holds these orbits, keyed by (family, rank, dominant weight), and is
    shared by every irreducible.  It serves only full_weight_support,
    which assembles a weight system {vector: m} from it afresh on each
    call, one dict.fromkeys per dominant weight, and the rebuild check of
    decompose_character; the oracle's pipelines read dominant weights
    alone.

The two are cross-checked against each other in the test suite.

greedy_decompose is the one highest-weight subtraction loop: the oracle's
restrictions and direct-sum pairs run it on their remainders, and
decompose_character here on a whole character, each caller keeping its
own check; the oracle's tensor products use the Brauer-Klimyk fold
instead.  decompose_character re-verifies every
decomposition by rebuilding its input: it sums the constituents' dominant
multiplicities, expands the sums over the memoized orbits into the whole
polynomial, and compares that with the whole input.
restrict_character reads the embedding from the pair's rule in the pair
table, pairs.PAIRS.

Families: "GL" (torus rank n), "Sp" (Sp of rank n), "SOOdd" (SO(2n+1)),
"SOEven" (SO(2n)).

All functions are pure; the memo caches hold immutable values keyed by
immutable keys, so concurrent use at worst recomputes an entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import add, ge, mul, sub
from types import MappingProxyType

from .errors import ExactnessError, NotACharacter, NotDominant
from .pairs import rule_of, torus_rank
from .partitions import partitions_of

Weight = tuple[int, ...]
LaurentPoly = dict[Weight, int]

FAMILIES = ("GL", "Sp", "SOOdd", "SOEven")


@dataclass(frozen=True)
class GroupSpec:
    family: str
    torus_rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.torus_rank < 1:
            raise ValueError("torus rank must be positive")


def GL(n: int) -> GroupSpec:
    return GroupSpec("GL", n)


def Sp(n: int) -> GroupSpec:
    return GroupSpec("Sp", n)


def SO(n: int) -> GroupSpec:
    """The special orthogonal group SO(n), n >= 2."""
    return GroupSpec("SOOdd" if n % 2 else "SOEven", torus_rank("O", n))


# ---------------------------------------------------------------------------
# root data


def positive_roots(g: GroupSpec) -> list[Weight]:
    n = g.torus_rank
    roots = []

    def e(i, j=None, sj=1):
        v = [0] * n
        v[i] = 1
        if j is not None:
            v[j] = sj
        return tuple(v)

    for i in range(n):
        for j in range(i + 1, n):
            roots.append(e(i, j, -1))  # e_i - e_j
    if g.family in ("Sp", "SOOdd", "SOEven"):
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(e(i, j, +1))  # e_i + e_j
    if g.family == "Sp":
        for i in range(n):
            v = [0] * n
            v[i] = 2
            roots.append(tuple(v))  # 2e_i
    if g.family == "SOOdd":
        for i in range(n):
            roots.append(e(i))  # e_i
    return roots


def two_rho(g: GroupSpec) -> Weight:
    n = g.torus_rank
    if g.family == "GL":
        return tuple(n - 1 - 2 * i for i in range(n))
    if g.family == "Sp":
        return tuple(2 * (n - i) for i in range(n))
    if g.family == "SOOdd":
        return tuple(2 * (n - i) - 1 for i in range(n))
    return tuple(2 * (n - 1 - i) for i in range(n))  # SOEven


def weyl_order(g: GroupSpec) -> int:
    import math

    n = g.torus_rank
    base = math.factorial(n)
    if g.family == "GL":
        return base
    if g.family == "SOEven":
        return base * 2 ** (n - 1) if n > 1 else 1
    return base * 2 ** n


def is_dominant(g: GroupSpec, w: Weight) -> bool:
    if len(w) != g.torus_rank or not all(map(ge, w, w[1:])):
        return False
    if g.family in ("Sp", "SOOdd"):
        return not w or w[-1] >= 0
    if g.family == "SOEven":
        return len(w) < 2 or w[-2] >= abs(w[-1])
    return True


def dominant_rep(g: GroupSpec, w: Weight) -> Weight:
    """The dominant Weyl-chamber representative of w's orbit."""
    if g.family == "GL":
        return tuple(sorted(w, reverse=True))
    mags = sorted((abs(x) for x in w), reverse=True)
    if g.family in ("Sp", "SOOdd"):
        return tuple(mags)
    # SOEven: even number of sign flips; a zero coordinate absorbs parity
    negatives = sum(1 for x in w if x < 0)
    if negatives % 2 and mags[-1] != 0:
        return tuple(mags[:-1]) + (-mags[-1],)
    return tuple(mags)


def _pad(g: GroupSpec, w) -> Weight:
    w = tuple(w)
    if len(w) > g.torus_rank:
        raise NotDominant(f"weight {w} longer than rank {g.torus_rank}")
    return w + (0,) * (g.torus_rank - len(w))


def ensure_dominant(g: GroupSpec, w) -> Weight:
    w = _pad(g, w)
    if not is_dominant(g, w):
        raise NotDominant(f"{w} is not dominant for {g.family} rank {g.torus_rank}")
    return w


# ---------------------------------------------------------------------------
# Laurent polynomial helpers


def poly_add_scaled(acc: LaurentPoly, poly: LaurentPoly, factor: int) -> None:
    for e, c in poly.items():
        v = acc.get(e, 0) + factor * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def poly_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if len(a) > len(b):
        a, b = b, a
    out: LaurentPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def poly_eval_ones(poly: LaurentPoly) -> int:
    return sum(poly.values())


def poly_invert_variables(poly: LaurentPoly) -> LaurentPoly:
    return {tuple(-x for x in e): c for e, c in poly.items()}


# ---------------------------------------------------------------------------
# the alternating-sum quotient


def _signed_orbit_terms(g: GroupSpec, v: Weight):
    """All (w(v), sign(w)) over the Weyl group; duplicates cancel later."""
    n = g.torus_rank
    idx = list(range(n))
    for perm in permutations(idx):
        # permutation parity by counting inversions
        inv = 0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    inv += 1
        psign = -1 if inv % 2 else 1
        base = tuple(v[p] for p in perm)
        if g.family == "GL":
            yield base, psign
            continue
        for signs in product((1, -1), repeat=n):
            if g.family == "SOEven" and signs.count(-1) % 2:
                continue
            ssign = -1 if signs.count(-1) % 2 else 1
            yield tuple(s * x for s, x in zip(signs, base)), psign * ssign


def _alternating_sum(g: GroupSpec, v: Weight) -> LaurentPoly:
    out: LaurentPoly = {}
    for e, s in _signed_orbit_terms(g, v):
        c = out.get(e, 0) + s
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials by peeling lex-leading terms.

    Requires the lex-leading coefficient of den to be 1.  Raises
    ExactnessError if the division leaves a remainder (detected by the
    quotient escaping the exponent box spanned by the inputs).
    """
    if not num:
        return {}
    lead = max(den)
    if den[lead] != 1:
        raise ExactnessError("denominator leading coefficient must be 1")
    n = len(lead)
    # every exact-quotient exponent is a difference of a numerator exponent
    # and a denominator exponent; escaping this box means a remainder
    lo = [min(e[i] for e in num) - max(e[i] for e in den) for i in range(n)]
    hi = [max(e[i] for e in num) - min(e[i] for e in den) for i in range(n)]
    rem = dict(num)
    quo: LaurentPoly = {}
    while rem:
        v = max(rem)
        c = rem[v]
        u = tuple(x - y for x, y in zip(v, lead))
        if any(x < a or x > b for x, a, b in zip(u, lo, hi)):
            raise ExactnessError("division left a remainder")
        quo[u] = quo.get(u, 0) + c
        for e, ce in den.items():
            key = tuple(x + y for x, y in zip(u, e))
            val = rem.get(key, 0) - c * ce
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return quo


_CHAR_CACHE: dict[tuple[str, int, Weight], LaurentPoly] = {}


def irreducible_character(g: GroupSpec, weight) -> LaurentPoly:
    """Exact irreducible character by the alternating-sum quotient.

    Enumerates the full Weyl group twice (numerator and denominator), so
    rank beyond ~6 is impractical; use weight_multiplicities there.  The
    division is exact by construction and raises if it is not.
    """
    w = ensure_dominant(g, weight)
    key = (g.family, g.torus_rank, w)
    cached = _CHAR_CACHE.get(key)
    if cached is not None:
        return cached
    tr = two_rho(g)
    if g.family == "SOOdd":
        # half-integral rho: work with doubled exponents, halve afterwards
        num = _alternating_sum(g, tuple(2 * x + r for x, r in zip(w, tr)))
        den = _alternating_sum(g, tr)
        doubled = _divide_exact(num, den)
        out: LaurentPoly = {}
        for e, c in doubled.items():
            if any(x % 2 for x in e):
                raise ExactnessError("odd exponent after SOOdd division")
            out[tuple(x // 2 for x in e)] = c
    else:
        rho = tuple(r // 2 for r in tr)
        num = _alternating_sum(g, tuple(x + r for x, r in zip(w, rho)))
        den = _alternating_sum(g, rho)
        out = _divide_exact(num, den)
    _CHAR_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def dominant_weights(g: GroupSpec, sizes):
    """Dominant vectors of g, size by size.  For GL a size is a pair (sum
    of the positive entries, sum of the negated negative ones); for the
    other families it is the sum of the absolute values."""
    n = g.torus_rank
    for size in sizes:
        if g.family == "GL":
            psize, msize = size
            for pp in partitions_of(psize, max_length=n):
                for mm in partitions_of(msize, max_length=n - len(pp)):
                    yield (pp + (0,) * (n - len(pp) - len(mm))
                           + tuple(-x for x in reversed(mm)))
            continue
        for pp in partitions_of(size, max_length=n):
            padded = pp + (0,) * (n - len(pp))
            yield padded
            if g.family == "SOEven" and len(pp) == n:
                yield padded[:-1] + (-padded[-1],)


def dominant_candidates(g: GroupSpec, lam: Weight) -> list[Weight]:
    """Dominant vectors that could be weights of the irrep with highest
    weight lam.  Supersets are harmless: non-weights get multiplicity 0."""
    if g.family == "GL":
        pos_budget = 0
        run = 0
        for x in lam:
            run += x
            pos_budget = max(pos_budget, run)
        total = sum(lam)
        sizes = ((p, p - total) for p in range(max(total, 0), pos_budget + 1))
    else:
        total = sum(abs(x) for x in lam)
        sizes = range(total, -1, -1 if g.family == "SOOdd" else -2)
    return list(dominant_weights(g, sizes))


def _root_orbits(family: str, mu: Weight) -> list[tuple[Weight, int]]:
    """One (root, count) per orbit of mu's stabiliser W_mu on the roots
    that holds a positive root: the root is one of its positive members
    and count the number of them.

    Read from mu's blocks of equal entries (mu dominant): W_mu permutes
    each block and, off GL, changes signs on the zero block, any number
    of them for Sp and SOOdd, an even number for SOEven.  So for SOEven a
    zero block of one entry keeps e_i - e_j and e_i + e_j (i in a nonzero
    block) in two orbits, and a zero block of two entries keeps them apart
    inside it.  An SOEven mu with a negative last entry is read through
    the sign flip of that entry, the diagram automorphism, which keeps the
    positive roots; with no zero block the table pairs each e_i - e_j with
    e_i + e_j, so the flip maps it onto itself."""
    n = len(mu)
    if family == "SOEven" and n and mu[-1] < 0:
        mu = mu[:-1] + (-mu[-1],)
    starts = [i for i in range(n) if i == 0 or mu[i] != mu[i - 1]]
    blocks = [(i, j - i) for i, j in zip(starts, starts[1:] + [n])]
    zero = blocks.pop() if family != "GL" and n and mu[-1] == 0 else None
    short = {"Sp": 2, "SOOdd": 1}.get(family)  # 2e_i or e_i
    signs = (-1,) if family == "GL" else (-1, 1)

    def root(i, j=None, sj=-1, si=1):
        v = [0] * n
        v[i] = si
        if j is not None:
            v[j] = sj
        return tuple(v)

    out = []
    for x, (b, p) in enumerate(blocks):
        for c, q in blocks[x + 1:]:
            out += [(root(b, c, s), p * q) for s in signs]
        if p > 1:
            out += [(root(b, b + 1, s), p * (p - 1) // 2) for s in signs]
        if short:
            out.append((root(b, si=short), p))
        if zero and family == "SOEven" and zero[1] == 1:
            out += [(root(b, zero[0], s), p) for s in signs]
        elif zero:
            out.append((root(b, zero[0]), 2 * p * zero[1]))
    if zero:
        z0, z = zero
        if family == "SOEven" and z == 2:
            out += [(root(z0, z0 + 1, s), 1) for s in signs]
        elif z > 1:
            out.append((root(z0, z0 + 1), z * (z - 1)))
        if short:
            out.append((root(z0, si=short), z))
    return out


_FREUD_CACHE: dict[tuple[str, int, Weight], MappingProxyType] = {}


def weight_multiplicities(g: GroupSpec, weight) -> MappingProxyType:
    """Dominant weight multiplicities of an irreducible, by Freudenthal's
    recursion, as a read-only view of the memo's entry.  The full weight
    system is the union of Weyl orbits of these (see full_weight_support).

    The root sum runs over the orbits of mu's stabiliser on the roots
    (_root_orbits), not over every positive root: w in W_mu maps the
    alpha-string through mu onto the w(alpha)-string, term for term, so
    each orbit's k-sum is taken once, through one positive member, and
    scaled by the number of positive roots it holds (Moody and Patera,
    Bull. AMS 7 (1982) 237-242)."""
    if isinstance(weight, tuple):  # memo keys are dominant tuples
        cached = _FREUD_CACHE.get((g.family, g.torus_rank, weight))
        if cached is not None:
            return cached
    lam = ensure_dominant(g, weight)
    key = (g.family, g.torus_rank, lam)
    cached = _FREUD_CACHE.get(key)
    if cached is not None:
        return cached
    tr = two_rho(g)
    lam_norm = _dot(lam, lam) + _dot(lam, tr)
    mults: dict[Weight, int] = {lam: 1}
    cands = [c for c in dominant_candidates(g, lam) if c != lam]
    cands.sort(key=lambda m: _dot(m, tr), reverse=True)
    height_cap = _dot(lam, tr)
    for mu in cands:
        if _dot(mu, tr) > height_cap:
            continue
        acc = 0
        for alpha, count in _root_orbits(g.family, mu):
            term = 0
            v = mu
            while True:
                v = tuple(map(add, v, alpha))
                rep = dominant_rep(g, v)
                if _dot(rep, tr) > height_cap:
                    break
                m = mults.get(rep)
                if m:
                    term += m * _dot(v, alpha)
            acc += count * term
        if acc == 0:
            continue
        denom = lam_norm - _dot(mu, mu) - _dot(mu, tr)
        if denom <= 0 or (2 * acc) % denom:
            raise ExactnessError(
                f"Freudenthal failed at {mu} for {g.family} {lam}")
        mults[mu] = (2 * acc) // denom
    out = _FREUD_CACHE[key] = MappingProxyType(mults)
    return out


def _arrangements(values):
    """Distinct arrangements of a value multiset.  Each distinct value but
    the most frequent takes a combination of the positions the values
    before it left free (combinations of free-list indices, so the choices
    are independent and one itertools.product runs them); the most
    frequent value fills the positions left over."""
    n = len(values)
    counts = Counter(values)
    fill = max(counts, key=counts.get)
    placed = [v for v in counts if v != fill]
    choices = []
    free = n
    for v in placed:
        choices.append(list(combinations(range(free), counts[v])))
        free -= counts[v]
    filled = [fill] * n
    positions = list(range(n))
    for picks in product(*choices):
        out = filled[:]
        free_pos = positions[:]
        for v, idx in zip(placed, picks):
            for j in reversed(idx):
                out[free_pos.pop(j)] = v
        yield tuple(out)


def orbit_vectors(g: GroupSpec, w: Weight):
    """All distinct vectors in the Weyl orbit of a dominant weight: the
    arrangements of its entries (GL) or of their absolute values, each
    expanded by itertools.product over the signs of its nonzero entries.
    SO(2n) changes an even number of signs, so with no zero entry the
    last sign is set by the parity of the others."""
    if g.family == "GL":
        yield from _arrangements(w)
        return
    mags = [abs(x) for x in w]
    if g.family != "SOEven" or 0 in mags:
        for placed in _arrangements(mags):
            yield from product(*[(x, -x) if x else (0,) for x in placed])
        return
    # odd[i]: whether the i-th head of product() below has an odd number
    # of negated entries; the last entry then flips so that the count
    # keeps w's parity (w[-1] < 0 exactly when that parity is odd)
    odd = [sum(bits) % 2 for bits in product((0, 1), repeat=len(w) - 1)]
    base = int(w[-1] < 0)
    for placed in _arrangements(mags):
        last = (placed[-1], -placed[-1])
        heads = product(*[(x, -x) for x in placed[:-1]])
        for head, o in zip(heads, odd):
            yield head + (last[o ^ base],)


_SUPPORT_CACHE: dict[tuple[str, int, Weight], tuple[Weight, ...]] = {}


def _expand(g: GroupSpec, dominant: dict[Weight, int]) -> LaurentPoly:
    """The W-invariant polynomial whose coefficients on the dominant
    chamber are ``dominant``, from the memoized Weyl orbits."""
    out: LaurentPoly = {}
    for w, m in dominant.items():
        if not m:
            continue
        key = (g.family, g.torus_rank, w)
        orbit = _SUPPORT_CACHE.get(key)
        if orbit is None:
            orbit = _SUPPORT_CACHE[key] = tuple(orbit_vectors(g, w))
        out.update(dict.fromkeys(orbit, m))
    return out


def full_weight_support(g: GroupSpec, weight) -> LaurentPoly:
    """The complete weight system {vector -> multiplicity} of an irrep,
    a new dict assembled from the memoized Weyl orbits."""
    return _expand(g, weight_multiplicities(g, ensure_dominant(g, weight)))


def _root_product(family: str, x, lo: int, hi: int) -> int:
    """∏ <x, α> over the positive roots α (those of positive_roots) that
    do not lie in the coordinates lo..hi-1 alone."""
    out = 1
    for i, a in enumerate(x):
        inside = lo <= i < hi
        for b in x[hi if inside else i + 1:]:
            out *= a - b  # e_i - e_j
            if family != "GL":
                out *= a + b  # e_i + e_j
        if inside:
            continue
        if family == "Sp":
            out *= 2 * a  # 2e_i
        elif family == "SOOdd":
            out *= a  # e_i
    return out


def dim_of_weight(g: GroupSpec, weight) -> int:
    """Dimension by the Weyl product formula (any rank), on the doubled
    vectors 2λ+2ρ and 2ρ.  A dominant weight's zero entries are
    consecutive, and a root that touches only those has the same factor
    in both products, so it is left out of both."""
    w = ensure_dominant(g, weight)
    tr = two_rho(g)
    doubled = [2 * x + r for x, r in zip(w, tr)]
    lo = sum(x > 0 for x in w)
    hi = lo + w.count(0)
    d, rest = divmod(_root_product(g.family, doubled, lo, hi),
                     _root_product(g.family, tr, lo, hi))
    if rest:
        raise ExactnessError("Weyl dimension formula gave a non-integer")
    return d


# ---------------------------------------------------------------------------
# restriction along the ten embeddings


def restrict_character(chi: LaurentPoly, pair: str, ranks) -> LaurentPoly:
    """Substitute the subgroup's torus into a character of the big group.

    ``ranks`` is (n,) or (n, m) in the pair's own convention.  The input
    lives on the big group's torus; the output on the subgroup's.
    """
    rule = rule_of(pair)
    if rule.kind == "polarization":
        return dict(chi)  # identical torus, re-read as GL_n
    if rule.kind == "diag":
        k = torus_rank(rule.small, ranks[0])
        size, torus = 2 * k, "product"
        keys = [tuple(map(add, e[:k], e[k:])) for e in chi]
    elif rule.kind == "sum":
        n, m = ranks
        a, b = torus_rank(rule.small, n), torus_rank(rule.small, m)
        size, torus = torus_rank(rule.big, n + m), "big"
        # first factor's coordinates, then the second's; a leftover
        # coordinate (odd-odd orthogonal split) is evaluated at 1
        keys = [e[:a + b] for e in chi]
    else:  # bilinear: GL_big ⊃ O_n or Sp_2n, each x_i paired with 1/x_i
        size, torus = rule.big_scale * ranks[0], "big"
        k = size // 2
        keys = [tuple(map(sub, e[:k], e[:size - k - 1:-1])) for e in chi]
    if not {size}.issuperset(map(len, chi)):
        raise ValueError(f"character does not live on the {torus} torus")
    out: LaurentPoly = {}
    for key, c in zip(keys, chi.values()):
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            del out[key]
    return out


# ---------------------------------------------------------------------------
# decomposition into irreducible characters


def greedy_decompose(rem: dict, system) -> dict:
    """Greedy highest-weight subtraction on a dominant-sector remainder.

    Repeatedly takes the lexicographically greatest key left in ``rem``,
    records its coefficient as that irreducible's multiplicity and
    subtracts that many copies of ``system(key)``, the irreducible's
    dominant weight system (for a product group, the product of its
    factors' systems).  Consumes ``rem``; a negative coefficient raises
    NotACharacter.
    """
    out: dict = {}
    while rem:
        w = max(rem)
        m = rem.pop(w)
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at {w}")
        out[w] = m
        for u, mu in system(w).items():
            if u == w:
                continue
            v = rem.get(u, 0) - m * mu
            if v:
                rem[u] = v
            else:
                rem.pop(u, None)
    return out


def decompose_character(chi: LaurentPoly, g: GroupSpec) -> dict[Weight, int]:
    """Decompose a genuine character into irreducibles.

    Greedy highest-weight subtraction (greedy_decompose) on the dominant
    sector of chi.  The input is then rebuilt from the result and compared
    exactly; any mismatch, a negative multiplicity, or junk exponents
    raise NotACharacter.
    """
    if not chi:
        return {}
    n = g.torus_rank
    for e in chi:
        if len(e) != n:
            raise NotACharacter(f"exponent {e} does not match rank {n}")
    rem = {w: c for w, c in chi.items() if is_dominant(g, w)}
    if not rem and chi:
        raise NotACharacter("no dominant weight in support")
    out = greedy_decompose(rem, lambda w: weight_multiplicities(g, w))
    # the rebuilt polynomial is W-invariant: sum its dominant coefficients,
    # then expand them over their orbits
    dominant: dict[Weight, int] = {}
    for w, m in out.items():
        for u, mu in weight_multiplicities(g, w).items():
            dominant[u] = dominant.get(u, 0) + m * mu
    if _expand(g, dominant) != chi:
        raise NotACharacter("input is not a non-negative sum of characters")
    return out
