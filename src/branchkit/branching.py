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
Each label's rank at the pair's ranks is read from pairs.label_ranks,
the one place that works it out.

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
# PAIR_IDS, PairRule, RepLabel and query are imported for its callers
from .pairs import (PAIR_IDS, PAIRS, BranchingQuery, PairRule, RepLabel,
                    label_ranks, query, rule_for_ranks, rule_of, torus_rank)
from .partitions import (
    GLLabel,
    Partition,
    check_partitions,
    contains,
    double_columns,
    double_rows,
    first_two_columns,
    is_even_columns,
    is_even_rows,
    meet,
    subpartitions,
)


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
        raise StableRangeViolation(rule_of(q.pair).rule_id, violations)
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
    summation variables the way the derivation's parameters do.  Caps
    must be at least the minimal values ℓ(μ+), ℓ(μ-), ℓ(ν+), ℓ(ν-); then
    each cap only skips a skew expansion that would be empty (γ1 ⊆ ν-,
    β1 ⊆ μ-, γ2 ⊆ ν+; a1 ⊆ μ+, b2 ⊆ ν- and a2 ⊆ ν+ need no cap), so the
    sum is unchanged, which the padding probe confirms.
    """
    if lam.degree() != mu.degree() + nu.degree():
        return 0
    p, q, r, s = (inf,) * 4 if caps is None else caps
    g1cap, g2cap = min(p, s), min(q, r)
    total = 0
    for a1 in subpartitions(meet(lam.plus, mu.plus)):
        for g1, c2 in skew_expand(mu.plus, a1).items():
            if len(g1) > g1cap:
                continue
            for b2, c3 in skew_expand(nu.minus, g1).items():
                for b1, c4 in skew_expand(lam.minus, b2).items():
                    if len(b1) > q:
                        continue
                    for g2, c5 in skew_expand(mu.minus, b1).items():
                        if len(g2) > g2cap:
                            continue
                        for a2, c6 in skew_expand(nu.plus, g2).items():
                            c1 = skew_expand(lam.plus, a1).get(a2, 0)
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
    """Σ_γ E_λ(γ) c^γ_{μν} over |γ| = |μ|+|ν|, where E_λ(γ) = Σ_δ c^λ_{γ 2δ}
    is λ's even weight (_even_weights), with 2δ running over even rows for
    the orthogonal case and even columns ((2δ)') for the symplectic case."""
    s = sum(mu) + sum(nu)
    if (sum(lam) - s) % 2:  # |2δ| = |λ| - |γ| is even
        return 0
    return sum(w * lr_coeff(gamma, mu, nu)
               for gamma, w in _even_weights(lam, even_mode, s).items()
               if sum(gamma) == s)


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


def _evens(outer: Partition, even_mode: str):
    """Every 2δ ⊆ outer with even rows ("rows") or even columns, built
    from δ ⊆ (⌊outer_1/2⌋, ⌊outer_2/2⌋, ...) or δ ⊆ (outer_2, outer_4, ...)."""
    if even_mode == "rows":
        return map(double_rows, subpartitions(tuple(x // 2 for x in outer)))
    return map(double_columns, subpartitions(outer[1::2]))


def _even_weights(outer: Partition, even_mode: str,
                  size: float = inf) -> dict[Partition, int]:
    """{α ⊆ outer: Σ_δ c^outer_{α 2δ}}, nonzero weights only: the skew
    expansions of outer/2δ, summed over the even 2δ of _evens that leave
    at most ``size`` boxes."""
    out: dict = defaultdict(int)
    least = sum(outer) - size
    for two_delta in _evens(outer, even_mode):
        if sum(two_delta) >= least:
            for alpha, c in skew_expand(outer, two_delta).items():
                out[alpha] += c
    return out


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
    if unsafe:
        q.validate_labels()
    else:
        validate_stable_range(q)
    return _formula_value(q)


# ---------------------------------------------------------------------------
# full decompositions


def _cross(a: dict, b: dict):
    """Every (x, y, a[x]·b[y])."""
    return ((x, y, c * d) for x, c in a.items() for y, d in b.items())


def _coproduct(passed: dict, outer: Partition, delta: Partition,
               limit: float) -> dict:
    """The coproduct of s_{outer/δ}: {(a, b): Σ_τ c^outer_{τa} c^τ_{δb}}
    over δ ⊆ τ ⊆ outer, which is Σ_γ c^outer_{δγ} c^γ_{ab} by
    coassociativity (Macdonald, Symmetric Functions, I.5 (5.10)), leaving
    out each τ with |τ/δ| over ``limit``.  ``passed`` maps τ to s_{outer/τ},
    one pass over τ ⊆ outer; at τ = outer, s_{τ/δ} is read from it too."""
    out: dict = defaultdict(int)
    for tau, above in passed.items():
        if sum(tau) - sum(delta) <= limit and contains(tau, delta):
            below = (passed.get(delta, {}) if tau == outer
                     else skew_expand(tau, delta))
            for a, c in above.items():
                for b, d in below.items():
                    out[a, b] += c * d
    return out


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

    The rule's sum is expanded from the big side, each term adding to the
    labels it produces.  The diagonal and bilinear-form rules take skew
    expansions of the big labels, then LR products (tensor_expand).  The
    direct-sum and polarization rules take the coproduct of s_{λ/δ},
    Σ_τ s_{λ/τ} ⊗ s_{τ/δ} (Macdonald I.5 (5.10)), for each δ the rule
    removes.  gl-sum reads every δ's coproduct from one pass over τ ⊆ λ±,
    which expands each λ±/τ once.  O and Sp remove only even 2δ, and their
    2δ-sum is taken inside each τ: Σ_{2δ} Δ s_{λ/2δ} = Σ_τ s_{λ/τ} ⊗ E_τ
    with E_τ = Σ_{2δ⊆τ} s_{τ/2δ}, one cross product per τ.  Under a bound
    no τ or 2δ that leaves a factor too much is searched.  No small label
    is guessed, so the cost follows the size of the output.

    The big side must itself satisfy the rule's hypotheses at ``ranks``
    (use validate_stable_range on a query first if unsure).
    """
    rule = rule_of(pair)
    # the sum rules read no rank, but ranks that are given must fit the rule
    if rule.kind != "sum" or ranks is not None:
        label_ranks(pair, ranks)
    for label in big if rule.kind == "diag" else (big,):
        check_partitions(rule.big, label)
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
        # δ cancels between λ+ and λ-, and the rest of each side splits
        # between the factors: Δ s_{λ±/δ} for every δ, read from one pass
        # over τ ⊆ λ±.  Under a bound a τ is passed over when it leaves μ
        # too much, or holds no δ that leaves the factors room
        size = big.total_size()
        passed = [{tau: skew_expand(outer, tau) for tau in subpartitions(outer)
                   if bound is None or (
                       sum(outer) - sum(tau) <= limit
                       and size - 2 * sum(meet(tau, other)) <= 2 * limit)}
                  for outer, other in (big, big[::-1])]
        terms: dict = defaultdict(int)  # ((μ+, ν+), (μ-, ν-)) -> multiplicity
        for delta in subpartitions(meet(big.plus, big.minus)):
            if size - 2 * sum(delta) > 2 * limit:  # some factor exceeds it
                continue
            plus, minus = (_coproduct(p, outer, delta, limit)
                           for p, outer in zip(passed, big))
            for kp, cp in plus.items():
                for km, cm in minus.items():
                    terms[kp, km] += cp * cm
        # popped, so that the labels take the memory the popped keys free
        while terms:
            ((mp, np_), (mm, nm)), c = terms.popitem()
            if bound is None or max(sum(mp) + sum(mm),
                                    sum(np_) + sum(nm)) <= bound:
                out[GLLabel(mp, mm), GLLabel(np_, nm)] = c
    elif rule.kind in ("sum", "polarization"):
        # Σ_{2δ} Δ s_{λ/2δ} = Σ_τ s_{λ/τ} ⊗ E_τ, where E_τ = Σ_{2δ⊆τ} s_{τ/2δ}
        # (_even_weights): one cross product per τ.  E_λ is the sum of this
        # pass's own s_{λ/τ} over the even τ, so λ comes last and each λ/τ
        # is expanded once.  Under a bound a τ that leaves a factor too
        # much is skipped, and so is each 2δ that leaves too much in τ
        polar = rule.kind == "polarization"
        even = is_even_rows if rule.even == "rows" else is_even_columns
        top: dict = defaultdict(int)  # E_λ, from s_{λ/λ} = 1 if λ is even
        if even(big):
            top[()] = 1
        terms = defaultdict(int)  # (μ, ν), or (μ+, μ-) -> multiplicity
        for tau in [t for t in subpartitions(big) if t != big] + [big]:
            rest = sum(big) - sum(tau)
            if rest > limit:
                continue
            evens = top if tau == big else _even_weights(
                tau, rule.even, limit - rest if polar else limit)
            if not evens:
                continue
            above = skew_expand(big, tau)
            if tau != big and even(tau):
                for a, c in above.items():
                    top[a] += c
            for a, c in above.items():
                for b, d in evens.items():
                    terms[a, b] += c * d
        if polar:
            cap = ranks[0] // 2
            while terms:  # popped, as for gl-sum
                (mp, mm), c = terms.popitem()
                if max(len(mp), len(mm)) <= cap:
                    out[GLLabel(mp, mm)] = c
        else:
            out = terms
    else:  # bilinear: μ ∈ α·β, weighted by the even weights of λ+/α, λ-/β
        weights = _cross(_even_weights(big.plus, rule.even),
                         _even_weights(big.minus, rule.even))
        out = _products(((a, b, w) for a, b, w in weights
                         if sum(a) + sum(b) <= limit),
                        torus_rank(rule.small, ranks[0]))
    return dict(out)
