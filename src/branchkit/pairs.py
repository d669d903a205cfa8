"""The pair table: the one place per-pair facts live.

``PAIRS`` maps each pair id to its PairRule: the rule's kind and number,
the label families on each side, the big label's rank and which even
shapes its sum keeps; label_ranks is the one place that turns a pair's
ranks into its labels' ranks.  The formulas (branching), the character
oracle and the verification grids read a pair's rule, never its id, so
this module depends on nothing but the error types.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidLabel, UnknownPair


class PairRule(NamedTuple):
    """The facts a rule is stated with: its kind, its number, the label
    families on each side, how the big label's rank follows from n and
    which even shapes its sum keeps.  A NamedTuple rather than a frozen
    dataclass: just as immutable, and about 1 ms cheaper to create at
    import."""

    kind: str  # "diag" | "sum" | "polarization" | "bilinear"
    rule_id: str
    big: str  # family of the big label: "GL" | "O" | "Sp"
    small: str  # family of each small label
    big_scale: int = 1  # the big rank is big_scale·n outside the sum rules
    even: str | None = None  # "rows" | "columns": the 2δ its sum runs over

    @property
    def small_count(self) -> int:
        return 2 if self.kind in ("diag", "sum") else 1


PAIRS = {
    "gl-diag": PairRule("diag", "2.1.1", "GL", "GL"),
    "o-diag": PairRule("diag", "2.1.2", "O", "O"),
    "sp-diag": PairRule("diag", "2.1.3", "Sp", "Sp"),
    "gl-sum": PairRule("sum", "2.2.1", "GL", "GL"),
    "o-sum": PairRule("sum", "2.2.2", "O", "O", even="rows"),
    "sp-sum": PairRule("sum", "2.2.3", "Sp", "Sp", even="columns"),
    "gl-in-o": PairRule("polarization", "2.3.1", "O", "GL", big_scale=2,
                        even="columns"),
    "gl-in-sp": PairRule("polarization", "2.3.2", "Sp", "GL", even="rows"),
    "o-in-gl": PairRule("bilinear", "2.4.1", "GL", "O", even="rows"),
    "sp-in-gl": PairRule("bilinear", "2.4.2", "GL", "Sp", big_scale=2,
                         even="columns"),
}

PAIR_IDS = tuple(PAIRS)


def rule_of(pair: str) -> PairRule:
    """The pair's PairRule; UnknownPair for an id not in PAIRS."""
    rule = PAIRS.get(pair)
    if rule is None:
        raise UnknownPair(pair)
    return rule


def rule_for_ranks(pair: str, ranks) -> PairRule:
    """The pair's PairRule; InvalidLabel unless ``ranks`` holds (n, m) for
    a sum rule, (n,) otherwise (entries beyond those are not read)."""
    rule = rule_of(pair)
    sums = rule.kind == "sum"
    if ranks is None or len(ranks) < 1 + sums:
        raise InvalidLabel(f"{pair} takes ranks {'(n, m)' if sums else '(n,)'}"
                           f", got {ranks!r}")
    return rule


def label_ranks(pair: str, ranks) -> tuple[int, tuple[int, ...]]:
    """The rank of the big label and of each small label at the pair's
    ranks (n,) or (n, m): n+m and (n, m) for a sum rule, big_scale·n and
    n for each small label otherwise.  InvalidLabel for a negative n or m."""
    rule = rule_for_ranks(pair, ranks)
    sums = rule.kind == "sum"
    for rank in ranks[:1 + sums]:
        if rank < 0:
            raise InvalidLabel(f"negative rank {rank}")
    n = ranks[0]
    if sums:
        m = ranks[1]
        return n + m, (n, m)
    return rule.big_scale * n, (n,) * rule.small_count


def torus_rank(family: str, n: int) -> int:
    """The rank of a maximal torus of the family's group at rank n: ⌊n/2⌋
    for O_n, n for GL_n and Sp_2n."""
    return n // 2 if family == "O" else n
