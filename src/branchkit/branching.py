"""The ten stable branching rules for classical symmetric pairs.

Every rule is a finite sum of products of Littlewood-Richardson
coefficients.  The sums are quantified over "all partitions" but LR support
truncates them: each summation variable is enumerated through the skew
expansion of a fixed outer shape, never by filtering a partition universe.

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
rule, never its id.  Each pair's stable-range inequalities are written
once, in range_violations.

For the diagonal pairs a query carries the two tensor factors as ``small``
and the target constituent as ``big``; for all other pairs ``big`` is the
representation being restricted.

Diagnostics name rules by a fixed numbering: 2.1.x the diagonal rules,
2.2.x the direct sums, 2.3.x the polarizations, 2.4.x the bilinear-form
rules (x ordered GL, O, Sp), and 1.1/1.2 the two classical restriction
theorems that the bilinear rules generalize.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidLabel, StableRangeViolation, UnknownPair
from .lr import (
    even_column_sum,
    even_row_sum,
    expansion_dot,
    lr_coeff,
    skew_expand,
)
# PAIR_IDS and PairRule are imported for callers of this module
from .pairs import PAIR_IDS, PAIRS, RULE_ID, PairRule, rule_of, torus_rank
from .partitions import (
    GLLabel,
    Partition,
    first_two_columns,
    meet,
    partitions_of,
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
    rule = rule_of(pair)
    n = ranks[0]
    if rule.kind == "sum":
        m = ranks[1] if len(ranks) > 1 else None
        big_rank, small_ranks = n + m, (n, m)
    else:
        big_rank, small_ranks = rule.big_scale * n, (n,) * rule.small_count
    return BranchingQuery(
        pair, RepLabel(rule.big, big_rank, big),
        tuple(RepLabel(rule.small, r, small[i]) for i, r in enumerate(small_ranks)))


# ---------------------------------------------------------------------------
# stable-range validation


def range_violations(pair: str, ranks, big=None, small=None) -> list[str]:
    """The rule's hypotheses that fail at ranks (n,) or (n, m), quoted with
    their numbers filled in; empty when they all hold.

    ``big`` and ``small`` are label data in query layout: for the diagonal
    pairs ``small`` holds the two tensor factors.  An inequality that reads
    a label left as None is skipped, so either side can be checked alone;
    gl-diag and gl-sum then word their one inequality for that side alone.
    """
    rule = rule_of(pair)
    kind = rule.kind
    n = ranks[0]
    # the length cap at rank n on a label of the small family, if O or Sp
    cap, cap_text = (n // 2, "⌊n/2⌋") if rule.small == "O" else (n, "n")
    out: list[str] = []

    def need(cond: bool, text: str):
        if not cond:
            out.append(text)

    def at_most(name: str, value: int, bound_name: str, bound: int,
                halved: bool = False):
        """value <= bound, or value <= bound/2 when ``halved``."""
        shown = f"{bound}/2" if halved else bound
        need(2 * value <= bound if halved else value <= bound,
             f"{name} <= {bound_name} fails: {value} > {shown}")

    if kind == "diag" and rule.small == "GL":
        if small is not None:
            mu, nu = small
            p, q, r, s = len(mu.plus), len(mu.minus), len(nu.plus), len(nu.minus)
            terms = f"{p}+{q}+{r}+{s}" if big is not None else p + q + r + s
            need(n >= p + q + r + s, f"n >= p+q+r+s fails: {n} < {terms}")
            if big is not None:
                at_most("ℓ(λ+)", len(big.plus), "p+r", p + r)
                at_most("ℓ(λ-)", len(big.minus), "q+s", q + s)
    elif kind == "diag":
        if big is not None:
            at_most("ℓ(λ)", len(big), cap_text, cap)
        if small is not None:
            at_most("ℓ(μ)+ℓ(ν)", len(small[0]) + len(small[1]), cap_text, cap)
    elif kind == "sum" and rule.small == "GL":
        low = min(ranks[0], ranks[1])
        if big is not None:
            labels = (big,) + tuple(small or ())
            p = max(len(lab.plus) for lab in labels)
            q = max(len(lab.minus) for lab in labels)
            need(p + q <= low,
                 f"p+q <= min(n,m) fails: {p}+{q} > {low}" if small is not None
                 else f"ℓ(λ+)+ℓ(λ-) <= min(n,m) fails: {p + q} > {low}")
    elif kind == "sum":
        low = min(ranks[0], ranks[1])
        for name, part in zip("λμν", (big,) + tuple(small or (None, None))):
            if part is None:
                continue
            if rule.small == "O":
                at_most(f"ℓ({name})", len(part), "½min(n,m)", low, halved=True)
            else:
                at_most(f"ℓ({name})", len(part), "min(n,m)", low)
    elif kind == "polarization":
        if big is not None:
            at_most("ℓ(λ)", len(big), "⌊n/2⌋", n // 2)
        if small is not None:
            at_most("ℓ(μ+)", len(small[0].plus), "⌊n/2⌋", n // 2)
            at_most("ℓ(μ-)", len(small[0].minus), "⌊n/2⌋", n // 2)
    else:  # bilinear
        # the dual-pair derivation needs n >= 2(ℓ(λ+)+ℓ(λ-)) for O and
        # n >= ℓ(λ+)+ℓ(λ-) for Sp, stronger than bounding each length alone
        if big is not None:
            k = len(big.plus) + len(big.minus)
            if rule.small == "O":
                at_most("ℓ(λ+)+ℓ(λ-)", k, "n/2", n, halved=True)
            else:
                at_most("ℓ(λ+)+ℓ(λ-)", k, "n", n)
        if small is not None:
            at_most("ℓ(μ)", len(small[0]), cap_text, cap)
    return out


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

    The small-side inequalities are enforced per candidate by
    branch_decompose's length caps."""
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
    if caps is not None:
        p, q, r, s = caps
        g1cap, g2cap = min(p, s), min(q, r)

    def ok(part: Partition, cap: int) -> bool:
        return len(part) <= cap

    total = 0
    for a1 in subpartitions(meet(lam.plus, mu.plus)):
        if caps is not None and not ok(a1, p):
            continue
        for g1, c2 in skew_expand(mu.plus, a1).items():
            if caps is not None and not ok(g1, g1cap):
                continue
            for b2, c3 in skew_expand(nu.minus, g1).items():
                if caps is not None and not ok(b2, s):
                    continue
                for b1, c4 in skew_expand(lam.minus, b2).items():
                    if caps is not None and not ok(b1, q):
                        continue
                    for g2, c5 in skew_expand(mu.minus, b1).items():
                        if caps is not None and not ok(g2, g2cap):
                            continue
                        for a2, c6 in skew_expand(nu.plus, g2).items():
                            if caps is not None and not ok(a2, r):
                                continue
                            c1 = lr_coeff(lam.plus, a2, a1)
                            if c1:
                                total += c1 * c2 * c3 * c4 * c5 * c6
    return total


def diagonal_onsp_sum(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Σ_{α,β,γ} c^λ_{αβ} c^μ_{αγ} c^ν_{βγ} (orthogonal and symplectic
    tensor products share this shape)."""
    asize2 = sum(lam) + sum(mu) - sum(nu)
    if asize2 < 0 or asize2 % 2:
        return 0
    asize = asize2 // 2
    total = 0
    for alpha in subpartitions(meet(lam, mu), asize):
        sk_lam = skew_expand(lam, alpha)  # β -> c^λ_{αβ}
        sk_mu = skew_expand(mu, alpha)    # γ -> c^μ_{αγ}
        if not sk_mu:
            continue
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
    rem = sum(lam) - s
    if rem < 0 or rem % 2:
        return 0
    even_sum = even_row_sum if even_mode == "rows" else even_column_sum
    total = 0
    for gamma in subpartitions(lam, s):
        c1 = lr_coeff(gamma, mu, nu)
        if c1:
            total += c1 * even_sum(skew_expand(lam, gamma))
    return total


def polarization_sum(lam: Partition, mu: GLLabel, even_mode: str) -> int:
    """Σ_{γ,δ} c^γ_{μ+μ-} c^λ_{γ ...}: even columns pair with the
    orthogonal group, even rows with the symplectic group."""
    s = mu.total_size()
    rem = sum(lam) - s
    if rem < 0 or rem % 2:
        return 0
    even_sum = even_column_sum if even_mode == "columns" else even_row_sum
    total = 0
    for gamma in subpartitions(lam, s):
        c1 = lr_coeff(gamma, mu.plus, mu.minus)
        if c1:
            total += c1 * even_sum(skew_expand(lam, gamma))
    return total


def bilinear_sum(lam: GLLabel, mu: Partition, even_mode: str) -> int:
    """Σ_{α,β,γ,δ} c^μ_{αβ} c^{λ+}_{α 2γ} c^{λ-}_{β 2δ} (even rows) or the
    even-column variant for the symplectic subgroup."""
    even_sum = even_row_sum if even_mode == "rows" else even_column_sum

    def even_complements(outer: Partition) -> dict[Partition, int]:
        out = {}
        for alpha in subpartitions(outer):
            if (sum(outer) - sum(alpha)) % 2:
                continue
            w = even_sum(skew_expand(outer, alpha))
            if w:
                out[alpha] = w
        return out

    aa = even_complements(lam.plus)
    if not aa:
        return 0
    bb = even_complements(lam.minus)
    if not bb:
        return 0
    total = 0
    for alpha, wa in aa.items():
        sk_mu = skew_expand(mu, alpha)  # β -> c^μ_{αβ}
        if not sk_mu:
            continue
        total += wa * sum(c * bb.get(beta, 0) for beta, c in sk_mu.items())
    return total


def littlewood_restriction(
    lam: Partition, mu: Partition, family: str, rank: int
) -> int:
    """Restriction multiplicity from GL to the orthogonal or symplectic
    subgroup: Σ_{2δ} c^λ_{μ 2δ} (O) or Σ c^λ_{μ (2δ)'} (Sp)."""
    if family == "O":
        violations = []
        if 2 * len(lam) > rank:
            violations.append(f"ℓ(λ) <= n/2 fails: {len(lam)} > {rank}/2")
        if first_two_columns(mu) > rank:
            violations.append(
                f"(μ')₁+(μ')₂ <= n fails: {first_two_columns(mu)} > {rank}"
            )
        if violations:
            raise StableRangeViolation("1.1", violations)
        return even_row_sum(skew_expand(lam, mu))
    if family == "Sp":
        violations = []
        if len(lam) > rank:
            violations.append(f"ℓ(λ) <= n fails: {len(lam)} > {rank}")
        if len(mu) > rank:
            violations.append(f"ℓ(μ) <= n fails: {len(mu)} > {rank}")
        if violations:
            raise StableRangeViolation("1.2", violations)
        return even_column_sum(skew_expand(lam, mu))
    raise InvalidLabel(f"family must be 'O' or 'Sp', got {family!r}")


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


def branch_decompose(pair: str, big, ranks=None, bound: int | None = None) -> dict:
    """All small labels with nonzero multiplicity under the named rule.

    ``big`` is the big-side data: a GLLabel or partition, or a pair of them
    for the diagonal rules (the two tensor factors).  ``ranks`` is (n,) or
    (n, m) as the pair expects; candidates are capped at the rule's
    stable-range lengths for those ranks, so every key of the result is a
    valid query.  The direct-sum rules have no rank-dependent caps and
    accept ranks=None.  ``bound`` optionally caps candidate label sizes.

    The big side must itself satisfy the rule's hypotheses at ``ranks``
    (use validate_stable_range on a query first if unsure).
    """
    rule = rule_of(pair)
    out: dict = {}

    def keep(key, value):
        if value:
            out[key] = value

    def sizes(total: int) -> range:
        hi = total if bound is None else min(total, bound)
        return range(hi, -1, -1)

    if rule.kind == "diag" and rule.big == "GL":
        mu, nu = big
        n = ranks[0]
        splus = sum(mu.plus) + sum(nu.plus)
        sminus = sum(mu.minus) + sum(nu.minus)
        lp_cap = min(len(mu.plus) + len(nu.plus), n)
        lm_cap = min(len(mu.minus) + len(nu.minus), n)
        for k in range(0, min(splus, sminus) + 1):
            if bound is not None and (splus - k) + (sminus - k) > bound:
                continue
            for lp in partitions_of(splus - k, max_length=lp_cap):
                for lm in partitions_of(sminus - k, max_length=lm_cap):
                    if len(lp) + len(lm) > n:
                        continue
                    lam = GLLabel(lp, lm)
                    keep(lam, diagonal_gl_sum(lam, mu, nu))
    elif rule.kind == "diag":
        mu, nu = big
        total = sum(mu) + sum(nu)
        len_cap = min(len(mu) + len(nu), torus_rank(rule.small, ranks[0]))
        for s in sizes(total):
            if (total - s) % 2:
                continue
            for lam in partitions_of(s, max_length=len_cap):
                keep(lam, diagonal_onsp_sum(lam, mu, nu))
    elif rule.kind == "sum" and rule.big == "GL":
        lam = big
        for mu_p in subpartitions(lam.plus):
            for nu_p in subpartitions(lam.plus):
                d = sum(lam.plus) - sum(mu_p) - sum(nu_p)
                if d < 0:
                    continue
                sminus = sum(lam.minus) - d
                if sminus < 0:
                    continue
                for mu_m in subpartitions(lam.minus):
                    rest = sminus - sum(mu_m)
                    if rest < 0:
                        continue
                    for nu_m in subpartitions(lam.minus, rest):
                        mu = GLLabel(mu_p, mu_m)
                        nu = GLLabel(nu_p, nu_m)
                        if bound is not None and (
                            mu.total_size() > bound or nu.total_size() > bound
                        ):
                            continue
                        keep((mu, nu), direct_sum_gl_sum(lam, mu, nu))
    elif rule.kind == "sum":
        lam = big
        for mu in subpartitions(lam):
            if bound is not None and sum(mu) > bound:
                continue
            for nu in subpartitions(lam):
                if sum(mu) + sum(nu) > sum(lam):
                    continue
                if (sum(lam) - sum(mu) - sum(nu)) % 2:
                    continue
                if bound is not None and sum(nu) > bound:
                    continue
                keep((mu, nu), direct_sum_onsp_sum(lam, mu, nu, rule.even))
    elif rule.kind == "polarization":
        lam = big
        len_cap = ranks[0] // 2
        for mu_p in subpartitions(lam):
            if len(mu_p) > len_cap:
                continue
            for mu_m in subpartitions(lam):
                if len(mu_m) > len_cap:
                    continue
                s = sum(mu_p) + sum(mu_m)
                if s > sum(lam) or (sum(lam) - s) % 2:
                    continue
                if bound is not None and s > bound:
                    continue
                mu = GLLabel(mu_p, mu_m)
                keep(mu, polarization_sum(lam, mu, rule.even))
    else:  # bilinear
        lam = big
        len_cap = min(len(lam.plus) + len(lam.minus),
                      torus_rank(rule.small, ranks[0]))
        total = lam.total_size()
        width = (lam.plus[0] if lam.plus else 0) + (lam.minus[0] if lam.minus else 0)
        for s in sizes(total):
            if (total - s) % 2:
                continue
            for mu in partitions_of(s, max_part=width or None, max_length=len_cap):
                keep(mu, bilinear_sum(lam, mu, rule.even))
    return out
