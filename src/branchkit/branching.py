"""The ten stable branching rules for classical symmetric pairs.

Every rule is a finite sum of products of Littlewood-Richardson
coefficients.  The sums are quantified over "all partitions" but LR support
truncates them: each summation variable is enumerated through the skew
expansion of a fixed outer shape, never by filtering a partition universe.
A full decomposition (branch_decompose) expands its rule's sum from the big
side, so its cost follows the size of its output, not a candidate count.

Pair identifiers (the external interface):

    gl-diag   GL_n ⊂ GL_n × GL_n          (tensor products, rational labels)
    o-diag    O_n ⊂ O_n × O_n
    sp-diag   Sp_2n ⊂ Sp_2n × Sp_2n
    gl-sum    GL_n × GL_m ⊂ GL_{n+m}
    o-sum     O_n × O_m ⊂ O_{n+m}
    sp-sum    Sp_2n × Sp_2m ⊂ Sp_{2(n+m)}
    gl-in-o   GL_n ⊂ O_2n                 (polarization)
    gl-in-sp  GL_n ⊂ Sp_2n                (polarization)
    o-in-gl   O_n ⊂ GL_n                  (invariant bilinear form)
    sp-in-gl  Sp_2n ⊂ GL_2n               (invariant bilinear form)

Per-pair facts live only in the pair table ``PAIRS`` (module pairs); every
choice here (formula, stable range, decomposition caps) reads the pair's
rule, never its id.  Each pair's stable-range inequalities are recorded
once, in _hypotheses, as the least rank at which each holds and its
failure text; range_violations and stable_rank both read those records.

For the diagonal pairs a query carries the two tensor factors as ``small``
and the target constituent as ``big``; for all other pairs ``big`` is the
representation being restricted.

Diagnostics name rules by a fixed numbering: 2.1.x the diagonal rules,
2.2.x the direct sums, 2.3.x the polarizations, 2.4.x the bilinear-form
rules (x ordered GL, O, Sp), and 1.1/1.2 the two classical restriction
theorems that the bilinear rules generalize.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import inf

from .errors import InvalidLabel, StableRangeViolation, UnknownPair
from .lr import (
    even_column_sum,
    even_row_sum,
    expansion_dot,
    lr_coeff,
    skew_expand,
    tensor_expand,
)
# PAIR_IDS and PairRule are imported for callers of this module
from .pairs import (PAIR_IDS, PAIRS, RULE_ID, PairRule, rule_for_ranks,
                    rule_of, torus_rank)
from .partitions import (
    GLLabel,
    Partition,
    first_two_columns,
    meet,
    subpartitions,
)


@dataclass(frozen=True)
class RepLabel:
    """A representation label: group family, rank, and highest-weight data.

    rank means n for GL_n and O_n and the rank n for Sp_2n.  ``data`` is a
    GLLabel for the GL family and a plain partition otherwise.
    """

    family: str  # "GL" | "O" | "Sp"
    rank: int
    data: GLLabel | Partition

    def validate(self) -> None:
        if self.rank < 0:
            raise InvalidLabel(f"negative rank {self.rank}")
        if self.family == "GL":
            if not isinstance(self.data, GLLabel):
                raise InvalidLabel("GL label needs a (plus, minus) pair")
            if not self.data.valid_for_rank(self.rank):
                raise InvalidLabel(
                    f"GL label {self.data} needs ℓ(plus)+ℓ(minus) <= {self.rank}"
                )
        elif self.family == "O":
            if first_two_columns(self.data) > self.rank:
                raise InvalidLabel(
                    f"O label {self.data}: first two columns exceed {self.rank}"
                )
        elif self.family == "Sp":
            if len(self.data) > self.rank:
                raise InvalidLabel(
                    f"Sp label {self.data} has more than {self.rank} parts"
                )
        else:
            raise InvalidLabel(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class BranchingQuery:
    """One multiplicity question for a named symmetric pair.

    ``small`` holds two labels for the diagonal pairs (the tensor factors)
    and for the direct-sum pairs (the factor-group labels); one otherwise.
    """

    pair: str
    big: RepLabel
    small: tuple[RepLabel, ...]

    def validate_labels(self) -> None:
        expected = rule_of(self.pair).small_count
        self.big.validate()
        for s in self.small:
            s.validate()
        if len(self.small) != expected:
            raise InvalidLabel(
                f"{self.pair} expects {expected} small label(s), got {len(self.small)}"
            )

    @property
    def ranks(self) -> tuple[int, ...]:
        """The pair's (n,) or (n, m), read back from the labels."""
        if rule_of(self.pair).kind == "diag":
            return (self.big.rank,)
        return tuple(s.rank for s in self.small)


def query(pair: str, ranks, big, small) -> BranchingQuery:
    """Build a BranchingQuery from raw label data.

    ranks: (n,) or (n, m) per pair.  big/small: partitions or GLLabels in
    the layout the pair expects.
    """
    rule = rule_for_ranks(pair, ranks)
    n = ranks[0]
    if rule.kind == "sum":
        m = ranks[1]
        big_rank, small_ranks = n + m, (n, m)
    else:
        big_rank, small_ranks = rule.big_scale * n, (n,) * rule.small_count
    return BranchingQuery(
        pair, RepLabel(rule.big, big_rank, big),
        tuple(RepLabel(rule.small, r, small[i]) for i, r in enumerate(small_ranks)))


# ---------------------------------------------------------------------------
# stable-range validation


def _hypotheses(rule: PairRule, big, small) -> list:
    """The rule's hypotheses on the given labels, each recorded once as
    (least rank N at which it holds, its failure text at rank N).  N is n,
    or min(n, m) for a sum rule; a hypothesis that reads no rank, such as
    gl-diag's ℓ(λ+) <= p+r, holds at every rank (-inf) or at none (inf).

    ``big`` and ``small`` are label data in query layout: for the diagonal
    pairs ``small`` holds the two tensor factors.  A hypothesis that reads
    a label left as None is not recorded, so either side can be checked
    alone; gl-diag and gl-sum then word their one inequality for that side
    alone.  Only label lengths are read.
    """
    kind = rule.kind
    out: list = []

    def at_most(name: str, value: int, bound_name: str, per: int = 1,
                halved: bool = False):
        """value <= ⌊N/per⌋, shown as N/2 when ``halved``."""
        out.append((per * value, lambda N: f"{name} <= {bound_name} fails: "
                    f"{value} > {f'{N}/2' if halved else N // per}"))

    def rank_free(name: str, value: int, bound_name: str, bound: int):
        """value <= bound, whatever the rank."""
        out.append((-inf if value <= bound else inf, lambda N:
                    f"{name} <= {bound_name} fails: {value} > {bound}"))

    # the length cap at rank N on a label of the small family, if O or Sp
    per, cap_text = (2, "⌊n/2⌋") if rule.small == "O" else (1, "n")
    if kind == "diag" and rule.small == "GL":
        if small is not None:
            mu, nu = small
            p, q, r, s = len(mu.plus), len(mu.minus), len(nu.plus), len(nu.minus)
            terms = f"{p}+{q}+{r}+{s}" if big is not None else p + q + r + s
            out.append((p + q + r + s,
                        lambda N: f"n >= p+q+r+s fails: {N} < {terms}"))
            if big is not None:
                rank_free("ℓ(λ+)", len(big.plus), "p+r", p + r)
                rank_free("ℓ(λ-)", len(big.minus), "q+s", q + s)
    elif kind == "diag":
        if big is not None:
            at_most("ℓ(λ)", len(big), cap_text, per)
        if small is not None:
            at_most("ℓ(μ)+ℓ(ν)", len(small[0]) + len(small[1]), cap_text, per)
    elif kind == "sum" and rule.small == "GL":
        if big is not None:
            labels = (big,) + tuple(small or ())
            p = max(len(lab.plus) for lab in labels)
            q = max(len(lab.minus) for lab in labels)
            text = (f"p+q <= min(n,m) fails: {p}+{q}" if small is not None
                    else f"ℓ(λ+)+ℓ(λ-) <= min(n,m) fails: {p + q}")
            out.append((p + q, lambda N: f"{text} > {N}"))
    elif kind == "sum":
        for name, part in zip("λμν", (big,) + tuple(small or (None, None))):
            if part is None:
                continue
            if rule.small == "O":
                at_most(f"ℓ({name})", len(part), "½min(n,m)", 2, halved=True)
            else:
                at_most(f"ℓ({name})", len(part), "min(n,m)")
    elif kind == "polarization":
        if big is not None:
            at_most("ℓ(λ)", len(big), "⌊n/2⌋", 2)
        if small is not None:
            at_most("ℓ(μ+)", len(small[0].plus), "⌊n/2⌋", 2)
            at_most("ℓ(μ-)", len(small[0].minus), "⌊n/2⌋", 2)
    else:  # bilinear
        # the dual-pair derivation needs n >= 2(ℓ(λ+)+ℓ(λ-)) for O and
        # n >= ℓ(λ+)+ℓ(λ-) for Sp, stronger than bounding each length alone
        if big is not None:
            k = len(big.plus) + len(big.minus)
            if rule.small == "O":
                at_most("ℓ(λ+)+ℓ(λ-)", k, "n/2", 2, halved=True)
            else:
                at_most("ℓ(λ+)+ℓ(λ-)", k, "n")
        if small is not None:
            at_most("ℓ(μ)", len(small[0]), cap_text, per)
    return out


def range_violations(pair: str, ranks, big=None, small=None) -> list[str]:
    """The rule's hypotheses (_hypotheses) that fail at ranks (n,) or
    (n, m), quoted with their numbers filled in; empty when they all
    hold.  ``big`` and ``small`` are label data in query layout, and
    either side may be left as None."""
    rule = rule_for_ranks(pair, ranks)
    rank = min(ranks[0], ranks[1]) if rule.kind == "sum" else ranks[0]
    return [text(rank) for least, text in _hypotheses(rule, big, small)
            if rank < least]


def stable_rank(pair: str, big=None, small=None):
    """The least rank N >= 0 (n, or min(n, m) for a sum rule) at which the
    rule's hypotheses (_hypotheses) hold on the given labels, inf if there
    is none."""
    return max([0] + [least for least, _ in
                      _hypotheses(rule_of(pair), big, small)])


def stable_range_violations(q: BranchingQuery) -> list[str]:
    """Empty list when the rule's hypotheses hold, else the failed
    inequalities, quoted with their numbers filled in."""
    return range_violations(q.pair, q.ranks, q.big.data,
                            tuple(s.data for s in q.small))


def validate_stable_range(q: BranchingQuery) -> BranchingQuery:
    """Return the query when its rule's hypotheses hold, else raise
    StableRangeViolation naming the rule and the failing inequality."""
    q.validate_labels()
    violations = stable_range_violations(q)
    if violations:
        raise StableRangeViolation(RULE_ID[q.pair], violations)
    return q


def decompose_range_violations(pair: str, big, ranks) -> list[str]:
    """The rule's hypotheses that involve only the side being decomposed.

    The small-side inequalities hold for every label branch_decompose
    returns: its length caps keep them."""
    if rule_of(pair).kind == "diag":
        return range_violations(pair, ranks, small=big)
    return range_violations(pair, ranks, big=big)


# ---------------------------------------------------------------------------
# the formulas (label-level helpers; unconstrained sums via LR support)


def diagonal_gl_sum(
    lam: GLLabel, mu: GLLabel, nu: GLLabel,
    caps: tuple[int, int, int, int] | None = None,
) -> int:
    """Six-fold LR sum for rational tensor product multiplicities.

    ``caps = (p, q, r, s)`` optionally bounds the lengths of the internal
    summation variables the way the derivation's parameters do; with caps
    at least the minimal values the sum is unchanged (the padding probe in
    the verification suite exercises exactly this).
    """
    if lam.degree() != mu.degree() + nu.degree():
        return 0
    p, q, r, s = (inf,) * 4 if caps is None else caps
    g1cap, g2cap = min(p, s), min(q, r)
    total = 0
    for a1 in subpartitions(meet(lam.plus, mu.plus)):
        if len(a1) > p:
            continue
        for g1, c2 in skew_expand(mu.plus, a1).items():
            if len(g1) > g1cap:
                continue
            for b2, c3 in skew_expand(nu.minus, g1).items():
                if len(b2) > s:
                    continue
                for b1, c4 in skew_expand(lam.minus, b2).items():
                    if len(b1) > q:
                        continue
                    for g2, c5 in skew_expand(mu.minus, b1).items():
                        if len(g2) > g2cap:
                            continue
                        for a2, c6 in skew_expand(nu.plus, g2).items():
                            if len(a2) > r:
                                continue
                            c1 = lr_coeff(lam.plus, a2, a1)
                            if c1:
                                total += c1 * c2 * c3 * c4 * c5 * c6
    return total


def diagonal_onsp_sum(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Σ_{α,β,γ} c^λ_{αβ} c^μ_{αγ} c^ν_{βγ} (orthogonal and symplectic
    tensor products share this shape)."""
    asize, odd = divmod(sum(lam) + sum(mu) - sum(nu), 2)
    if odd:
        return 0
    total = 0
    for alpha in subpartitions(meet(lam, mu), asize):
        sk_lam = skew_expand(lam, alpha)  # β -> c^λ_{αβ}
        sk_mu = skew_expand(mu, alpha)    # γ -> c^μ_{αγ}
        for beta, c_lam in sk_lam.items():
            total += c_lam * expansion_dot(sk_mu, skew_expand(nu, beta))
    return total


def direct_sum_gl_sum(lam: GLLabel, mu: GLLabel, nu: GLLabel) -> int:
    """Σ c^{γ+}_{μ+ν+} c^{γ-}_{μ-ν-} c^{λ+}_{γ+δ} c^{λ-}_{γ-δ}."""
    splus = sum(mu.plus) + sum(nu.plus)
    sminus = sum(mu.minus) + sum(nu.minus)
    d = sum(lam.plus) - splus
    if d < 0 or sum(lam.minus) - sminus != d:
        return 0
    minus_terms = []
    for gm in subpartitions(lam.minus, sminus):
        c2 = lr_coeff(gm, mu.minus, nu.minus)
        if c2:
            minus_terms.append((c2, skew_expand(lam.minus, gm)))
    if not minus_terms:
        return 0
    total = 0
    for gp in subpartitions(lam.plus, splus):
        c1 = lr_coeff(gp, mu.plus, nu.plus)
        if not c1:
            continue
        sk_p = skew_expand(lam.plus, gp)
        for c2, sk_m in minus_terms:
            total += c1 * c2 * expansion_dot(sk_p, sk_m)
    return total


def direct_sum_onsp_sum(
    lam: Partition, mu: Partition, nu: Partition, even_mode: str
) -> int:
    """Σ_{γ,δ} c^γ_{μν} c^λ_{γ 2δ} with 2δ running over even rows for the
    orthogonal case and even columns ((2δ)') for the symplectic case."""
    s = sum(mu) + sum(nu)
    if (sum(lam) - s) % 2:
        return 0
    even_sum = even_row_sum if even_mode == "rows" else even_column_sum
    total = 0
    for gamma in subpartitions(lam, s):
        c1 = lr_coeff(gamma, mu, nu)
        if c1:
            total += c1 * even_sum(skew_expand(lam, gamma))
    return total


def polarization_sum(lam: Partition, mu: GLLabel, even_mode: str) -> int:
    """Σ_{γ,δ} c^γ_{μ+μ-} c^λ_{γ ...}: the direct-sum sum with μ+ and μ- as
    the two factors (even columns pair with the orthogonal group, even rows
    with the symplectic group)."""
    return direct_sum_onsp_sum(lam, mu.plus, mu.minus, even_mode)


def bilinear_sum(lam: GLLabel, mu: Partition, even_mode: str) -> int:
    """Σ_{α,β,γ,δ} c^μ_{αβ} c^{λ+}_{α 2γ} c^{λ-}_{β 2δ} (even rows) or the
    even-column variant for the symplectic subgroup."""
    bb = _even_weights(lam.minus, even_mode)
    return sum(wa * expansion_dot(skew_expand(mu, alpha), bb)
               for alpha, wa in _even_weights(lam.plus, even_mode).items())


def _even_weights(outer: Partition, even_mode: str) -> dict[Partition, int]:
    """{α ⊆ outer: Σ_δ c^outer_{α 2δ}}, nonzero weights only; 2δ runs over
    the even-row partitions ("rows") or the even-column ones."""
    even_sum = even_row_sum if even_mode == "rows" else even_column_sum
    out = {}
    for alpha in subpartitions(outer):
        if (sum(outer) - sum(alpha)) % 2:
            continue
        w = even_sum(skew_expand(outer, alpha))
        if w:
            out[alpha] = w
    return out


def _coproduct(gamma: Partition):
    """Every (a, b, c^γ_{ab}) with a nonzero coefficient."""
    return ((a, b, c) for a in subpartitions(gamma)
            for b, c in skew_expand(gamma, a).items())


def littlewood_restriction(
    lam: Partition, mu: Partition, family: str, rank: int
) -> int:
    """Restriction multiplicity from GL to the orthogonal or symplectic
    subgroup: Σ_{2δ} c^λ_{μ 2δ} (O) or Σ c^λ_{μ (2δ)'} (Sp)."""
    if family == "O":
        rule_id, even_sum, checks = "1.1", even_row_sum, [
            (2 * len(lam) <= rank, f"ℓ(λ) <= n/2 fails: {len(lam)} > {rank}/2"),
            (first_two_columns(mu) <= rank,
             f"(μ')₁+(μ')₂ <= n fails: {first_two_columns(mu)} > {rank}")]
    elif family == "Sp":
        rule_id, even_sum, checks = "1.2", even_column_sum, [
            (len(lam) <= rank, f"ℓ(λ) <= n fails: {len(lam)} > {rank}"),
            (len(mu) <= rank, f"ℓ(μ) <= n fails: {len(mu)} > {rank}")]
    else:
        raise InvalidLabel(f"family must be 'O' or 'Sp', got {family!r}")
    violations = [text for holds, text in checks if not holds]
    if violations:
        raise StableRangeViolation(rule_id, violations)
    return even_sum(skew_expand(lam, mu))


# ---------------------------------------------------------------------------
# query-level operations


def _formula_value(q: BranchingQuery) -> int:
    rule = rule_of(q.pair)
    big, small = q.big.data, [s.data for s in q.small]
    if rule.kind == "diag":
        if rule.big == "GL":
            return diagonal_gl_sum(big, *small)
        return diagonal_onsp_sum(big, *small)
    if rule.kind == "sum":
        if rule.big == "GL":
            return direct_sum_gl_sum(big, *small)
        return direct_sum_onsp_sum(big, *small, rule.even)
    if rule.kind == "polarization":
        return polarization_sum(big, *small, rule.even)
    return bilinear_sum(big, *small, rule.even)


def _multiplicity_of_kind(q: BranchingQuery, kind: str, noun: str) -> int:
    rule = PAIRS.get(q.pair)
    if rule is None or rule.kind != kind:
        raise UnknownPair(f"{q.pair} is not a {noun} pair")
    validate_stable_range(q)
    return _formula_value(q)


def diagonal_multiplicity(q: BranchingQuery) -> int:
    """Multiplicity of q.big in q.small[0] ⊗ q.small[1] (diagonal pairs)."""
    return _multiplicity_of_kind(q, "diag", "diagonal")


def direct_sum_multiplicity(q: BranchingQuery) -> int:
    return _multiplicity_of_kind(q, "sum", "direct-sum")


def polarization_multiplicity(q: BranchingQuery) -> int:
    return _multiplicity_of_kind(q, "polarization", "polarization")


def bilinear_multiplicity(q: BranchingQuery) -> int:
    return _multiplicity_of_kind(q, "bilinear", "bilinear-form")


def branching_multiplicity(q: BranchingQuery, unsafe: bool = False) -> int:
    """Dispatch on the pair's rule.  With ``unsafe`` the formula is evaluated
    even when the stable-range hypotheses fail (labels are still checked)."""
    q.validate_labels()
    if not unsafe:
        validate_stable_range(q)
    return _formula_value(q)


# ---------------------------------------------------------------------------
# full decompositions


def _cross(a: dict, b: dict):
    """Every (x, y, a[x]·b[y])."""
    return ((x, y, c * d) for x, c in a.items() for y, d in b.items())


def _products(terms, cap: int) -> dict[Partition, int]:
    """Σ w·s_x·s_y over the (x, y, w) terms, keeping the constituents with
    at most cap parts; each unordered pair {x, y} is expanded once."""
    pairs: dict = defaultdict(int)
    for x, y, w in terms:
        pairs[min(x, y), max(x, y)] += w
    out: dict = defaultdict(int)
    for (x, y), w in pairs.items():
        for lam, c in tensor_expand(x, y, cap).items():
            out[lam] += w * c
    return out


def branch_decompose(pair: str, big, ranks=None, bound: int | None = None) -> dict:
    """All small labels with nonzero multiplicity under the named rule.

    ``big`` is the big-side data: a GLLabel or partition, or a pair of them
    for the diagonal rules (the two tensor factors).  ``ranks`` is (n,) or
    (n, m) as the pair expects; labels are capped at the rule's
    stable-range lengths for those ranks, so every key of the result is a
    valid query.  The direct-sum rules have no rank-dependent caps and
    accept ranks=None.  ``bound`` optionally caps label sizes: each
    factor's for the direct sums, |λ+|+|λ-| for a GL label, |λ| otherwise.

    The rule's sum is expanded from the big side: skew expansions of the
    big labels, then LR products (tensor_expand) or coproducts of what is
    left, each term adding to the labels it produces.  No small label is
    guessed, so the cost follows the size of the output.

    The big side must itself satisfy the rule's hypotheses at ``ranks``
    (use validate_stable_range on a query first if unsure).
    """
    rule = rule_of(pair)
    # the sum rules read no rank, but ranks that are given must fit the rule
    if rule.kind != "sum" or ranks is not None:
        rule_for_ranks(pair, ranks)
    limit = inf if bound is None else bound
    out: dict = defaultdict(int)
    if rule.kind == "diag" and rule.big == "GL":
        # κ cancels between μ+ and ν-, τ between ν+ and μ-
        mu, nu = big
        n = ranks[0]
        total = mu.total_size() + nu.total_size()
        for kappa in subpartitions(meet(mu.plus, nu.minus)):
            for tau in subpartitions(meet(nu.plus, mu.minus)):
                if total - 2 * (sum(kappa) + sum(tau)) > limit:
                    continue
                plus = _products(_cross(skew_expand(mu.plus, kappa),
                                        skew_expand(nu.plus, tau)), n)
                minus = _products(_cross(skew_expand(nu.minus, kappa),
                                         skew_expand(mu.minus, tau)), n)
                for lp, cp in plus.items():
                    for lm, cm in minus.items():
                        if len(lp) + len(lm) <= n:
                            out[GLLabel(lp, lm)] += cp * cm
    elif rule.kind == "diag":
        # α is the part the two factors share: λ ∈ (μ/α)·(ν/α)
        mu, nu = big
        total = sum(mu) + sum(nu)
        out = _products(
            (t for alpha in subpartitions(meet(mu, nu))
             if total - 2 * sum(alpha) <= limit
             for t in _cross(skew_expand(mu, alpha), skew_expand(nu, alpha))),
            torus_rank(rule.small, ranks[0]))
    elif rule.kind == "sum" and rule.big == "GL":
        # δ cancels between λ+ and λ-; the rest γ± splits between the factors
        gammas: dict = defaultdict(int)
        for delta in subpartitions(meet(big.plus, big.minus)):
            for gp, gm, w in _cross(skew_expand(big.plus, delta),
                                    skew_expand(big.minus, delta)):
                gammas[gp, gm] += w
        for (gp, gm), w in gammas.items():
            minus = list(_coproduct(gm))
            for mp, np_, cp in _coproduct(gp):
                for mm, nm, cm in minus:
                    mu, nu = GLLabel(mp, mm), GLLabel(np_, nm)
                    if max(mu.total_size(), nu.total_size()) <= limit:
                        out[mu, nu] += w * cp * cm
    elif rule.kind == "sum":
        # each γ with nonzero even weight on λ/γ splits between the factors
        for gamma, w in _even_weights(big, rule.even).items():
            for mu, nu, c in _coproduct(gamma):
                if max(sum(mu), sum(nu)) <= limit:
                    out[mu, nu] += w * c
    elif rule.kind == "polarization":
        # as the sum rules, with γ split into μ+ and μ-
        cap = ranks[0] // 2
        for gamma, w in _even_weights(big, rule.even).items():
            for mp, mm, c in _coproduct(gamma):
                if sum(gamma) <= limit and max(len(mp), len(mm)) <= cap:
                    out[GLLabel(mp, mm)] += w * c
    else:  # bilinear: μ ∈ α·β, weighted by the even weights of λ+/α, λ-/β
        weights = _cross(_even_weights(big.plus, rule.even),
                         _even_weights(big.minus, rule.even))
        out = _products(((a, b, w) for a, b, w in weights
                         if sum(a) + sum(b) <= limit),
                        torus_rank(rule.small, ranks[0]))
    return dict(out)
