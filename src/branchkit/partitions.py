"""Integer partitions and the shape predicates the branching formulas use.

Partitions are plain tuples of positive integers in weakly decreasing order
with no trailing zeros; the empty partition is ``()``.  All functions here are
pure, so they are safe to share between threads.
"""

from __future__ import annotations

from operator import lt
from typing import Iterator, NamedTuple, Sequence

from .errors import InvalidLabel, NotAPartition, ParseError

Partition = tuple[int, ...]


def ensure_partition(parts: Sequence[int]) -> Partition:
    """Canonicalize a sequence into a partition, dropping zeros.

    Raises NotAPartition if the sequence increases anywhere or contains a
    negative entry.
    """
    out = []
    prev = None
    for p in parts:
        if p < 0:
            raise NotAPartition(f"negative part {p} in {tuple(parts)}")
        if prev is not None and p > prev:
            raise NotAPartition(f"parts increase at {prev} < {p} in {tuple(parts)}")
        prev = p
        if p > 0:
            out.append(p)
    return tuple(out)


def parse_partition(text: str) -> Partition:
    """Parse ``"[3,2,1]"``, ``"3,2,1"`` or ``"[]"`` into a partition.

    Zero parts are accepted and dropped (inputs are often padded tuples).
    """
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    parts = []
    for tok in s.split(","):
        tok = tok.strip()
        # isdecimal, not isdigit, which also takes digits such as "²" that
        # int() refuses; int() also refuses a token past its digit limit
        try:
            if tok.removeprefix("-").isdecimal():
                parts.append(int(tok))
                continue
        except ValueError:
            pass
        raise ParseError(f"bad partition token {tok!r} in {text!r}")
    if any(p < 0 for p in parts):
        raise ParseError(f"negative part in {text!r}")
    return ensure_partition(parts)


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: (p')_i = #{j : p_j >= i}."""
    if not p:
        return ()
    cols = [0] * p[0]
    for part in p:
        for i in range(part):
            cols[i] += 1
    return tuple(cols)


def double_rows(p: Partition) -> Partition:
    """(2p_1, 2p_2, ...): the generic even-row partition."""
    return tuple(2 * x for x in p)


def double_columns(p: Partition) -> Partition:
    """Each column height doubled: conjugate(double_rows(conjugate(p)))."""
    out = []
    for x in p:
        out.append(x)
        out.append(x)
    return tuple(out)


def contains(big: Partition, small: Partition) -> bool:
    """True iff small_i <= big_i for all i (missing parts are 0)."""
    if len(small) > len(big):
        return False
    return all(s <= b for s, b in zip(small, big))


def meet(a: Partition, b: Partition) -> Partition:
    """Largest partition contained in both (pointwise minimum)."""
    return tuple(min(x, y) for x, y in zip(a, b))


def is_even_rows(p: Partition) -> bool:
    return all(x % 2 == 0 for x in p)


def is_even_columns(p: Partition) -> bool:
    """True iff every column height is even, i.e. parts pair up equal."""
    if len(p) % 2:
        return False
    return all(p[i] == p[i + 1] for i in range(0, len(p), 2))


def first_two_columns(p: Partition) -> int:
    """(p')_1 + (p')_2: the orthogonal label constraint quantity."""
    return len(p) + sum(1 for x in p if x >= 2)


def partitions_of(
    n: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[Partition]:
    """All partitions of n, optionally bounded in largest part and length."""
    if n < 0:
        return
    top = n if max_part is None else min(max_part, n)

    def rec(remaining: int, bound: int, rows_left: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        if rows_left <= 0 or bound <= 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, rows_left - 1, acc)
            acc.pop()

    rows = n if max_length is None else max_length
    yield from rec(n, top, rows, [])


def partitions_up_to(
    n: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[Partition]:
    """All partitions of size 0..n."""
    for k in range(n + 1):
        yield from partitions_of(k, max_part, max_length)


def subpartitions(p: Partition, total: int | None = None) -> Iterator[Partition]:
    """Partitions contained in p, optionally of a fixed size."""
    if total is not None:
        if total > sum(p):  # nothing that large fits in p
            return
        for q in partitions_of(total, p[0] if p else 0, len(p)):
            if contains(p, q):
                yield q
        return

    def rec(i: int, bound: int, acc: list[int]):
        yield tuple(acc)
        if i == len(p):
            return
        for part in range(min(p[i], bound), 0, -1):
            acc.append(part)
            yield from rec(i + 1, part, acc)
            acc.pop()

    yield from rec(0, p[0] if p else 0, [])


class GLLabel(NamedTuple):
    """Rational general-linear highest-weight label: a pair of partitions.

    ``plus`` carries the positive tail of the weight and ``minus`` the
    negated, reversed negative tail; polynomial representations have
    ``minus == ()``.
    """

    plus: Partition
    minus: Partition

    def valid_for_rank(self, n: int) -> bool:
        return len(self.plus) + len(self.minus) <= n

    def degree(self) -> int:
        return sum(self.plus) - sum(self.minus)

    def total_size(self) -> int:
        return sum(self.plus) + sum(self.minus)


def check_partitions(family: str, data) -> None:
    """Raise InvalidLabel unless the family's label data holds partitions
    only: the GLLabel's plus and minus for GL, the one partition otherwise.
    A negative part or an increasing pair of parts has no highest weight."""
    for part in data if isinstance(data, GLLabel) else (data,):
        if any(x < 0 for x in part) or any(map(lt, part, part[1:])):
            where = f": {part}" if isinstance(data, GLLabel) else ""
            raise InvalidLabel(f"{family} label {data}{where} is not a partition")


def parse_gl_label(text: str) -> GLLabel:
    """Parse ``"[2,1]/[1]"``; the ``"/[...]"`` suffix is optional."""
    if "/" in text:
        left, right = text.split("/", 1)
        return GLLabel(parse_partition(left), parse_partition(right))
    return GLLabel(parse_partition(text), ())


def format_gl_label(label: GLLabel) -> str:
    if label.minus:
        return format_partition(label.plus) + "/" + format_partition(label.minus)
    return format_partition(label.plus)
