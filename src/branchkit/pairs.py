"""The pair table: the one place per-pair facts live.

``PAIRS`` maps each pair id to its PairRule: the rule's kind and number,
the label families on each side, the big label's rank and which even
shapes its sum keeps; label_ranks is the one place that turns a pair's
ranks into its labels' ranks.  The query types (RepLabel, BranchingQuery
and query) live here too, so that both sides can build a query.  The
formulas (branching), the character oracle and the verification grids
read a pair's rule, never its id, so this module depends on nothing but
the error types and the partitions; the oracle reaches no LR code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidLabel, UnknownPair
from .partitions import GLLabel, Partition, check_partitions, first_two_columns


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
        check_partitions(self.family, self.data)


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
        self.big.validate()
        for s in self.small:
            s.validate()
        _check_small_count(self.pair, rule_of(self.pair).small_count,
                           len(self.small))

    @property
    def ranks(self) -> tuple[int, ...]:
        """The pair's (n,) or (n, m), read back from the labels."""
        if rule_of(self.pair).kind == "diag":
            return (self.big.rank,)
        return tuple(s.rank for s in self.small)


def _check_small_count(pair: str, expected: int, got: int) -> None:
    if got != expected:
        raise InvalidLabel(
            f"{pair} expects {expected} small label(s), got {got}")


def query(pair: str, ranks, big, small) -> BranchingQuery:
    """Build a BranchingQuery from raw label data.

    ranks: (n,) or (n, m) per pair.  big/small: partitions or GLLabels in
    the layout the pair expects; InvalidLabel for the wrong number of
    small labels.
    """
    big_rank, small_ranks = label_ranks(pair, ranks)
    _check_small_count(pair, len(small_ranks), len(small))
    rule = rule_of(pair)
    return BranchingQuery(
        pair, RepLabel(rule.big, big_rank, big),
        tuple(RepLabel(rule.small, r, s) for r, s in zip(small_ranks, small)))
