"""Brute-force branching oracle: characters in, multiplicities out.

Nothing here touches a Littlewood-Richardson coefficient.  Every answer is
obtained from exact torus characters: build the big group's character,
substitute the subgroup's torus, decompose into the subgroup's irreducible
characters, translate dominant weights back to labels.

Tensor products (the diagonal pairs) are decomposed without materializing
the product polynomial: by Weyl symmetry a product is determined by its
coefficients on dominant weights, and each such coefficient is a single
convolution of one factor's full weight system against the other's.  Every
decomposition is balanced against Weyl dimensions, so a dropped or spurious
constituent cannot pass silently.

Orthogonal labels are read through SO characters.  That is faithful for
ℓ(λ) < n/2 (the safe regime).  Self-associate labels at ℓ(λ) = n/2 appear
inside decompositions as a +/- pair of SO weights with equal multiplicity;
the translation folds the pair into the single O label after checking that
equality, but query entry points refuse such labels outright.
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType

from .branching import BranchingQuery, RepLabel, rule_of
from .characters import (
    GL,
    GroupSpec,
    SO,
    Sp,
    Weight,
    decompose_character,
    dim_of_weight,
    dominant_candidates,
    full_weight_support,
    is_dominant,
    restrict_character,
    weight_multiplicities,
)
from .errors import (
    ExactnessError,
    NotACharacter,
    OutOfSafeRegime,
    StableRangeViolation,
    UnknownPair,
)
from .partitions import GLLabel, Partition, double_columns, double_rows, partitions_of

# ---------------------------------------------------------------------------
# label <-> weight translation


def gl_weight(label: GLLabel, n: int) -> Weight:
    if not label.valid_for_rank(n):
        raise OutOfSafeRegime(f"GL label {label} invalid at rank {n}")
    mid = n - len(label.plus) - len(label.minus)
    return label.plus + (0,) * mid + tuple(-x for x in reversed(label.minus))


def weight_to_gl_label(w: Weight) -> GLLabel:
    plus = tuple(x for x in w if x > 0)
    minus = tuple(-x for x in reversed(w) if x < 0)
    return GLLabel(plus, minus)


def sp_weight(lam: Partition, rank: int) -> Weight:
    if len(lam) > rank:
        raise OutOfSafeRegime(f"Sp label {lam} has more than {rank} parts")
    return tuple(lam) + (0,) * (rank - len(lam))


def so_weight(lam: Partition, n: int) -> Weight:
    """The SO_n highest weight of the O_n label λ; only faithful in the
    safe regime ℓ(λ) < n/2."""
    if 2 * len(lam) >= n:
        raise OutOfSafeRegime(
            f"O label {lam} at n={n}: need ℓ(λ) < n/2 to read through SO")
    rank = n // 2
    return tuple(lam) + (0,) * (rank - len(lam))


def _strip(w: Weight) -> Partition:
    return tuple(x for x in w if x)


def _translate_so_map(raw: dict[Weight, int], n: int) -> dict[Partition, int]:
    """SO dominant weights -> O labels, folding self-associate +/- pairs."""
    out: dict[Partition, int] = {}
    for w, m in raw.items():
        if not w:
            out[()] = m
            continue
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


def _o_dim(lam: Partition, n: int) -> int:
    """dim E^λ_n for ℓ(λ) <= n/2 (doubles the SO dimension at the
    self-associate boundary)."""
    rank = n // 2
    if 2 * len(lam) > n:
        raise OutOfSafeRegime(f"O label {lam} beyond ℓ(λ) <= n/2 at n={n}")
    w = tuple(lam) + (0,) * (rank - len(lam))
    d = dim_of_weight(SO(n), w)
    if n % 2 == 0 and len(lam) == rank:
        d *= 2
    return d


def dim_irrep(label: RepLabel) -> int:
    """Dimension by the Weyl product formula on the connected group."""
    if label.family == "GL":
        return dim_of_weight(GL(label.rank), gl_weight(label.data, label.rank))
    if label.family == "Sp":
        return dim_of_weight(Sp(label.rank), sp_weight(label.data, label.rank))
    if label.family == "O":
        if 2 * len(label.data) >= label.rank:
            raise OutOfSafeRegime(
                f"O label {label.data} at n={label.rank}: need ℓ(λ) < n/2")
        return _o_dim(label.data, label.rank)
    raise ValueError(f"unknown family {label.family!r}")


# ---------------------------------------------------------------------------
# tensor-product decomposition via dominant-sector convolution


def decompose_tensor(g: GroupSpec, w1: Weight, w2: Weight) -> dict[Weight, int]:
    """Irreducible content of the product character chi_{w1}·chi_{w2}.

    The product's coefficient at each candidate dominant weight w is the
    convolution sum over one factor's full weight system; greedy subtraction
    then runs entirely inside the dominant sector.  The result is balanced
    against Weyl dimensions before being returned.
    """
    d1 = dim_of_weight(g, w1)
    d2 = dim_of_weight(g, w2)
    if d1 > d2:
        w1, w2, d1, d2 = w2, w1, d2, d1
    supp = list(full_weight_support(g, w1).items())
    other = full_weight_support(g, w2)
    rem: dict[Weight, int] = {}
    # every constituent lies below w1+w2 in dominance order
    for w in dominant_candidates(g, tuple(a + b for a, b in zip(w1, w2))):
        c = 0
        for u, cu in supp:
            cv = other.get(tuple(a - b for a, b in zip(w, u)))
            if cv:
                c += cu * cv
        if c:
            rem[w] = c
    out: dict[Weight, int] = {}
    while rem:
        w = max(rem)
        m = rem.pop(w)
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at {w}")
        out[w] = m
        for u, mu in weight_multiplicities(g, w).items():
            if u == w:
                continue
            v = rem.get(u, 0) - m * mu
            if v:
                rem[u] = v
            else:
                rem.pop(u, None)
    mass = sum(m * dim_of_weight(g, w) for w, m in out.items())
    if mass != d1 * d2:
        raise ExactnessError(
            f"tensor mass check failed: {mass} != {d1}*{d2} on {g}")
    return out


# ---------------------------------------------------------------------------
# joint decomposition for the direct-sum pairs


def _sum_pair_decompose(
    g_big: GroupSpec, big_weight: Weight, ga: GroupSpec, gb: GroupSpec,
    candidates,
) -> dict[tuple[Weight, Weight], int]:
    """Decompose V(big) under the product subgroup whose torus is the split
    of the big torus (plus an evaluated-away leftover coordinate, if any)."""
    from .characters import dominant_rep

    a, b = ga.torus_rank, gb.torus_rank
    left = g_big.torus_rank - a - b
    rem: dict[tuple[Weight, Weight], int] = {}
    if left == 0:
        # the monomial coefficient at (u, v) is a plain weight multiplicity
        fr = weight_multiplicities(g_big, big_weight)
        for u, v in candidates:
            m = fr.get(dominant_rep(g_big, u + v), 0)
            if m:
                rem[(u, v)] = m
    else:
        # odd-odd orthogonal split: a leftover torus coordinate is evaluated
        # at 1, collapsing weights; accumulate the restricted coefficients
        coeffs: dict[tuple[Weight, Weight], int] = {}
        for w, m in full_weight_support(g_big, big_weight).items():
            key = (w[:a], w[a:a + b])
            coeffs[key] = coeffs.get(key, 0) + m
        rem = {
            (u, v): c for (u, v), c in coeffs.items()
            if c and is_dominant(ga, u) and is_dominant(gb, v)
        }
    out: dict[tuple[Weight, Weight], int] = {}
    while rem:
        u, v = max(rem)
        m = rem.pop((u, v))
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at {(u, v)}")
        out[(u, v)] = m
        fr_u = weight_multiplicities(ga, u)
        fr_v = weight_multiplicities(gb, v)
        for uu, cu in fr_u.items():
            for vv, cv in fr_v.items():
                if (uu, vv) == (u, v):
                    continue
                val = rem.get((uu, vv), 0) - m * cu * cv
                if val:
                    rem[(uu, vv)] = val
                else:
                    rem.pop((uu, vv), None)
    mass = sum(
        m * dim_of_weight(ga, u) * dim_of_weight(gb, v)
        for (u, v), m in out.items()
    )
    if mass != dim_of_weight(g_big, big_weight):
        raise ExactnessError("direct-sum mass check failed")
    return out


# ---------------------------------------------------------------------------
# per-pair oracle pipelines

_ORACLE_CACHE: dict = {}


def oracle_decomposition(pair: str, ranks: tuple, big) -> MappingProxyType:
    """Full decomposition map for one big representation, keyed by small
    label data ((GLLabel | Partition) or pairs thereof).  The map is a
    read-only view of the memo's entry."""
    if pair.endswith("diag"):
        big = tuple(sorted(big))  # tensor factors commute
    key = (pair, tuple(ranks), big)
    cached = _ORACLE_CACHE.get(key)
    if cached is not None:
        return cached
    out = MappingProxyType(_oracle_decomposition(pair, ranks, big))
    _ORACLE_CACHE[key] = out
    return out


def _partition_weight_candidates(g: GroupSpec, max_size: int):
    for t in range(max_size, -1, -1):
        for pp in partitions_of(t, max_length=g.torus_rank):
            v = pp + (0,) * (g.torus_rank - len(pp))
            yield v
            if g.family == "SOEven" and len(pp) == g.torus_rank:
                yield v[:-1] + (-v[-1],)


def _oracle_decomposition(pair: str, ranks: tuple, big) -> dict:
    if pair == "gl-diag":
        n = ranks[0]
        mu, nu = big
        raw = decompose_tensor(GL(n), gl_weight(mu, n), gl_weight(nu, n))
        return {weight_to_gl_label(w): m for w, m in raw.items()}
    if pair == "o-diag":
        n = ranks[0]
        mu, nu = big
        g = SO(n)
        raw = decompose_tensor(g, so_weight(mu, n), so_weight(nu, n))
        return _translate_so_map(raw, n)
    if pair == "sp-diag":
        n = ranks[0]
        mu, nu = big
        g = Sp(n)
        raw = decompose_tensor(g, sp_weight(mu, n), sp_weight(nu, n))
        return {_strip(w): m for w, m in raw.items()}
    if pair == "gl-sum":
        n, m = ranks
        lam = big
        g_big = GL(n + m)
        wbig = gl_weight(lam, n + m)
        # λ's positive and negative sizes bound those of every factor weight
        pos, neg = sum(lam.plus), sum(lam.minus)

        def cand_gl(g):
            for psize in range(0, pos + 1):
                for msize in range(0, neg + 1):
                    for pp in partitions_of(psize, max_length=g.torus_rank):
                        for mm in partitions_of(
                            msize, max_length=g.torus_rank - len(pp)
                        ):
                            yield (pp + (0,) * (g.torus_rank - len(pp) - len(mm))
                                   + tuple(-x for x in reversed(mm)))

        pairs = [
            (u, v)
            for u in cand_gl(GL(n))
            for v in cand_gl(GL(m))
            if sum(u) + sum(v) == sum(wbig)
        ]
        raw = _sum_pair_decompose(g_big, wbig, GL(n), GL(m), pairs)
        return {
            (weight_to_gl_label(u), weight_to_gl_label(v)): c
            for (u, v), c in raw.items()
        }
    if pair in ("o-sum", "sp-sum"):
        n, m = ranks
        lam = big
        if pair == "o-sum":
            g_big, ga, gb = SO(n + m), SO(n), SO(m)
            wbig = so_weight(lam, n + m)
            # with no leftover torus coordinate the joint root lattice
            # forces even total drop; an odd factor lifts that constraint
            parity_filter = n % 2 == 0 and m % 2 == 0
        else:
            g_big, ga, gb = Sp(n + m), Sp(n), Sp(m)
            wbig = sp_weight(lam, n + m)
            parity_filter = True
        total = sum(lam)
        usizes = {}
        pairs = []
        for u in _partition_weight_candidates(ga, total):
            usizes[u] = sum(abs(x) for x in u)
        for v in _partition_weight_candidates(gb, total):
            vs = sum(abs(x) for x in v)
            for u, us in usizes.items():
                if us + vs > total:
                    continue
                if parity_filter and (total - us - vs) % 2:
                    continue
                pairs.append((u, v))
        raw = _sum_pair_decompose(g_big, wbig, ga, gb, pairs)
        if pair == "o-sum":
            out: dict = {}
            for (u, v), c in raw.items():
                if (u and u[-1] < 0) or (v and v[-1] < 0):
                    raise OutOfSafeRegime(
                        f"boundary factor label in o-sum output: {u},{v}")
                ou, ov = _strip(u), _strip(v)
                if 2 * len(ou) >= n or 2 * len(ov) >= m:
                    raise OutOfSafeRegime(
                        f"factor label out of safe regime in o-sum: {u},{v}")
                out[(ou, ov)] = c
            return out
        return {(_strip(u), _strip(v)): c for (u, v), c in raw.items()}
    if pair in ("gl-in-o", "gl-in-sp"):
        n = ranks[0]
        lam = big
        if pair == "gl-in-o":
            src = SO(2 * n)
            if 2 * len(lam) >= 2 * n:
                raise OutOfSafeRegime(
                    f"O label {lam} needs ℓ(λ) < n for the O_2n oracle")
            wsrc = tuple(lam) + (0,) * (n - len(lam))
        else:
            src = Sp(n)
            wsrc = sp_weight(lam, n)
        chi = dict(full_weight_support(src, wsrc))
        restricted = restrict_character(chi, pair, (n,))
        raw = decompose_character(restricted, GL(n))
        return {weight_to_gl_label(w): m for w, m in raw.items()}
    if pair in ("o-in-gl", "sp-in-gl"):
        n = ranks[0]
        big_n = rule_of(pair).big_scale * n
        chi = dict(full_weight_support(GL(big_n), gl_weight(big, big_n)))
        restricted = restrict_character(chi, pair, (n,))
        if pair == "o-in-gl":
            return _translate_so_map(decompose_character(restricted, SO(n)), n)
        raw = decompose_character(restricted, Sp(n))
        return {_strip(w): m for w, m in raw.items()}
    raise UnknownPair(pair)


def oracle_multiplicity(q: BranchingQuery) -> int:
    """Multiplicity by the character pipeline alone (no LR machinery).

    Orthogonal labels must sit in the safe regime; ranks are taken from the
    query's labels.
    """
    kind = rule_of(q.pair).kind
    if kind == "diag":
        given, looked_up = tuple(s.data for s in q.small), (q.big,)
    else:
        given, looked_up = q.big.data, q.small
    # check the labels looked up in the decomposition and a sum pair's big
    # label; the other pipelines check the labels they read themselves
    for lab in looked_up + ((q.big,) if kind == "sum" else ()):
        if lab.family == "O" and 2 * len(lab.data) >= lab.rank:
            raise OutOfSafeRegime(
                f"O label {lab.data} at n={lab.rank}: need ℓ(λ) < n/2")
    key = tuple(lab.data for lab in looked_up)
    dec = oracle_decomposition(q.pair, q.ranks, given)
    return dec.get(key if kind == "sum" else key[0], 0)


# ---------------------------------------------------------------------------
# graded-dimension duality identities

DUALITY_KINDS = ("cauchy_gl", "sym_square", "wedge_square", "o_duality",
                 "sp_duality")


def _sym_dim(space_dim: int, degree: int) -> int:
    if degree == 0:
        return 1
    if space_dim == 0:
        return 0
    return comb(space_dim + degree - 1, degree)


def _gl_dim(lam: Partition, n: int) -> int:
    if len(lam) > n:
        return 0
    return dim_of_weight(GL(n), tuple(lam) + (0,) * (n - len(lam)))


def duality_dim_check(kind: str, d: int, n: int | None = None,
                      p: int | None = None, k: int | None = None) -> bool:
    """Degree-d dimension identity for one of the multiplicity-free
    decompositions underlying the branching machinery."""
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
                rhs += (_o_dim(lam, n) * _gl_dim(lam, k)
                        * _sym_dim(k * (k + 1) // 2, (d - t) // 2))
        return lhs == rhs
    if kind == "sp_duality":
        if n < k:
            raise StableRangeViolation(
                "duality", [f"sp_duality needs n >= k: {n} < {k}"])
        lhs = _sym_dim(2 * n * k, d)
        rhs = 0
        for t in range(d % 2, d + 1, 2):
            for lam in partitions_of(t, max_length=min(n, k)):
                rhs += (dim_of_weight(Sp(n), sp_weight(lam, n))
                        * _gl_dim(lam, k)
                        * _sym_dim(k * (k - 1) // 2, (d - t) // 2))
        return lhs == rhs
    raise ValueError(f"unknown duality kind {kind!r}")
