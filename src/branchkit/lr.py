"""Littlewood-Richardson coefficients by pruned skew-tableau search.

c^λ_{μν} counts skew semistandard tableaux of shape λ/μ and content ν whose
reverse reading word is a lattice word.  The search fills cells in reverse
reading order (rows top to bottom, each row right to left) so that the
lattice condition, row-weakness and column-strictness can all be enforced
the moment a value is placed.  One traversal of a shape collects every
admissible content at once, which is what the branching sums actually
consume.

Leaves are counted without a call each: the search node that fills the
last cell counts each value it may place there, in a dict keyed by the
tuple of value counts.  Each distinct key becomes its content once, at
the end; the counts of a lattice word form a partition, so the content is
the key up to its first zero.

That search is the only one.  Products use it on the skew shape of μ and
ν placed corner to corner, μ to the upper right of ν, whose skew Schur
function is s_μ · s_ν (Macdonald, Symmetric Functions and Hall
Polynomials, I.5): its contents are the constituents λ themselves.  The
rows of μ, the larger factor, are filled first and admit only one
lattice filling (row i all i), so the search branches only on ν's cells.

A single coefficient c^λ_{μν} (ν the smaller factor) runs the same
search on λ/μ bounded by its content: a branch that places more than ν₁
ones, or a value above ℓ(ν), is cut at that cell.  The bound enters
through two values the search reads anyway, the sentinel counts[0] and
each row's largest value, so the search runs the same instructions with
or without it.  That result is partial and is not memoized; every
complete skew expansion is.  The memo is a plain dict holding
immutable values: under concurrent use the worst case is recomputing an
entry, never an inconsistent one.
"""

from __future__ import annotations

import zlib

from .partitions import Partition, contains, is_even_columns, is_even_rows

_INF = 10 ** 9

# (outer, inner) -> {content: count}; maps are complete and must not be mutated
_SKEW_CACHE: dict[tuple[Partition, Partition], dict[Partition, int]] = {}


def _skew_fillings(outer: Partition, inner: Partition,
                   within: Partition | None = None) -> dict[Partition, int]:
    """Count lattice fillings of outer/inner, grouped by content.

    With ``within``, a nonempty partition, only the contents κ with
    ℓ(κ) <= ℓ(within) and κ₁ <= within₁ are searched and returned.
    """
    rows = len(outer)
    depth = rows if within is None else len(within)
    inner_padded = tuple(inner) + (0,) * (rows - len(inner))
    table = [[0] * n for n in outer]
    # per cell, in filling order: its row, column, the row above (None when
    # the cell above is in inner), whether a cell lies to its right, and
    # the largest value row r may hold: r+1, as a lattice word allows, or
    # ℓ(within) if less.  Every cell read (right and above) comes earlier
    # in that order, so it always holds the value of the current branch and
    # needs no reset.
    cells = []
    for r in range(rows):
        top = r + 1 if r < depth else depth
        for c in range(outer[r] - 1, inner_padded[r] - 1, -1):
            above = table[r - 1] if r and c >= inner_padded[r - 1] else None
            cells.append((table[r], c, above, c + 1 < outer[r], top))
    if not cells:
        return {(): 1}

    # counts[v] is how often v has been placed; the sentinel counts[0] lets
    # value 1 pass the lattice test counts[v-1] > counts[v] at most within₁
    # times, or always when there is no bound
    counts = [_INF if within is None else within[0]] + [0] * (rows + 1)
    leaves: dict[tuple[int, ...], int] = {}
    last = len(cells) - 1

    def fill(i: int):
        row, c, above, has_right, top = cells[i]
        hi = row[c + 1] if has_right else top  # row[c+1] <= top already
        lo = 1 if above is None else above[c] + 1
        if i == last:  # count the leaves here, without a call each
            for v in range(lo, hi + 1):
                if counts[v - 1] <= counts[v]:
                    continue
                counts[v] += 1
                key = tuple(counts)
                leaves[key] = leaves.get(key, 0) + 1
                counts[v] -= 1
            return
        for v in range(lo, hi + 1):
            if counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            row[c] = v
            fill(i + 1)
            counts[v] -= 1

    fill(0)
    # a lattice word's counts form a partition, and counts[rows+1] stays 0
    return {key[1:key.index(0, 1)]: n for key, n in leaves.items()}


def skew_expand(outer: Partition, inner: Partition) -> dict[Partition, int]:
    """All ν with c^outer_{inner,ν} > 0, as a map ν -> coefficient.

    Returns {} when inner is not contained in outer.  The returned dict is
    shared with the cache; treat it as read-only.
    """
    key = (outer, inner)
    cached = _SKEW_CACHE.get(key)
    if cached is not None:
        return cached
    if not contains(outer, inner):
        out: dict[Partition, int] = {}
    else:
        out = _skew_fillings(outer, inner)
    _SKEW_CACHE[key] = out
    return out


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c^λ_{μν}.

    Zero unless |λ| = |μ| + |ν| and both μ and ν fit inside λ.  The search
    runs over the skew shape left by the larger of μ, ν, and only over
    contents that fit the smaller one's first row and length; it reads and
    fills no memo.
    """
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if not contains(lam, mu) or not contains(lam, nu):
        return 0
    larger, smaller = (mu, nu) if (sum(mu), mu) >= (sum(nu), nu) else (nu, mu)
    if not smaller:
        return int(lam == larger)
    return _skew_fillings(lam, larger, smaller).get(smaller, 0)


def lr_count_direct(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^λ_{μν} without the μ/ν canonical swap; used by symmetry tests."""
    if sum(lam) != sum(mu) + sum(nu) or not contains(lam, mu):
        return 0
    return _skew_fillings(lam, mu).get(nu, 0)


def tensor_expand(
    mu: Partition, nu: Partition, max_length: int | None = None
) -> dict[Partition, int]:
    """Decomposition of the product s_μ · s_ν: {λ -> c^λ_{μν} > 0}, keeping
    the λ with at most ``max_length`` parts.

    The product is the skew expansion of μ and ν placed corner to corner,
    the larger factor μ above and to the right: outer (ν₁+μ₁, …,
    ν₁+μ_ℓ(μ), ν₁, …, ν_ℓ(ν)) and inner (ν₁^ℓ(μ)).  Both argument orders
    read one memo entry, returned as a copy.  A cap below ℓ(μ)+ℓ(ν) cuts
    values above it in the search; that result is not memoized.
    """
    if max_length is not None and max(len(mu), len(nu)) > max_length:
        return {}
    if (sum(mu), mu) < (sum(nu), nu):
        mu, nu = nu, mu
    width = nu[0] if nu else 0
    outer = tuple(width + x for x in mu) + nu
    inner = (width,) * len(mu) if nu else ()
    if max_length is None or max_length >= len(outer):
        return dict(skew_expand(outer, inner))
    return _skew_fillings(outer, inner, (outer[0],) * max_length)


def even_row_sum(expansion: dict[Partition, int]) -> int:
    """Sum of coefficients over keys with all parts even."""
    return sum(c for nu, c in expansion.items() if is_even_rows(nu))


def even_column_sum(expansion: dict[Partition, int]) -> int:
    """Sum of coefficients over keys whose column heights are all even."""
    return sum(c for nu, c in expansion.items() if is_even_columns(nu))


def expansion_dot(a: dict[Partition, int], b: dict[Partition, int]) -> int:
    """Σ_γ a[γ]·b[γ], iterating over the smaller map."""
    if len(a) > len(b):
        a, b = b, a
    return sum(c * b.get(k, 0) for k, c in a.items())


def cache_size() -> int:
    return len(_SKEW_CACHE)


def clear_cache() -> None:
    _SKEW_CACHE.clear()


def dump_cache_lines(held=()):
    """Serialize the memo, one complete skew expansion per line, leaving out
    the keys in ``held``.

    A line reads ``outer|inner|ν:c,ν:c,...|crc``: partitions as dotted
    parts, and crc the CRC-32 of the text before the last ``|`` in eight
    hex digits.  The checksum catches a line that two appends spliced
    together; a line whose checksum holds is loaded whatever it says."""
    for key, expansion in _SKEW_CACHE.items():
        if key in held:
            continue
        outer, inner = key
        text = "%s|%s|%s" % (
            ".".join(map(str, outer)),
            ".".join(map(str, inner)),
            ",".join(".".join(map(str, nu)) + ":" + str(c)
                     for nu, c in sorted(expansion.items())),
        )
        yield "%s|%08x" % (text, zlib.crc32(text.encode()))


def load_cache_lines(lines):
    """Load lines produced by dump_cache_lines; returns the keys loaded.

    Raises ValueError on a line that does not parse or fails its checksum
    (a line of the format before checksums among them), and then loads
    nothing: the memo takes the lines all together or not at all."""
    # each distinct partition string is parsed once per load
    parsed: dict[str, Partition] = {"": ()}

    def parse(part: str) -> Partition:
        p = parsed.get(part)
        if p is None:
            p = parsed[part] = tuple(map(int, part.split(".")))
        return p

    loaded: dict[tuple[Partition, Partition], dict[Partition, int]] = {}
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        text, _, crc = line.rpartition("|")
        if crc != "%08x" % zlib.crc32(text.encode()):
            raise ValueError(f"line {number} fails its checksum")
        outer_s, inner_s, entries_s = text.split("|")
        expansion = {}
        if entries_s:
            for item in entries_s.split(","):
                nu_s, c_s = item.split(":")
                expansion[parse(nu_s)] = int(c_s)
        loaded[parse(outer_s), parse(inner_s)] = expansion
    _SKEW_CACHE.update(loaded)
    return loaded.keys()
