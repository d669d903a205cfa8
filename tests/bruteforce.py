"""Deliberately naive reference implementations for cross-checking.

These share no code or search order with the package: tableaux are built
cell by cell or row by row, left to right, and the lattice condition is
tested on the finished reading word, and Schur polynomials come straight
from semistandard-tableau enumeration.
"""

from itertools import combinations_with_replacement, product
from operator import gt


def cells_of_skew(outer, inner):
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return [(r, c) for r in range(len(outer))
            for c in range(inner[r], outer[r])]


def is_lattice(word):
    counts = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts.get(v - 1, 0) < counts[v]:
            return False
    return True


def naive_lr(outer, inner, content):
    """Count Littlewood-Richardson tableaux by filtering every filling."""
    if sum(outer) != sum(inner) + sum(content):
        return 0
    cells = cells_of_skew(outer, inner)
    if not cells:
        return 1 if not content else 0
    maxv = len(content)
    if maxv == 0:
        return 0
    count = 0
    for filling in product(range(1, maxv + 1), repeat=len(cells)):
        grid = {}
        for (r, c), v in zip(cells, filling):
            grid[(r, c)] = v
        ok = True
        for (r, c), v in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < v:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] <= v:
                ok = False
                break
        if not ok:
            continue
        weight = [0] * maxv
        for v in grid.values():
            weight[v - 1] += 1
        if tuple(weight) != tuple(content):
            continue
        # reverse reading word: rows top to bottom, right to left
        word = []
        for r in range(len(outer)):
            row = [(c, grid[(r, c)]) for (rr, c) in grid if rr == r]
            for c, v in sorted(((c, grid[(r, c)]) for (rr, c) in grid if rr == r),
                               reverse=True):
                word.append(v)
        if is_lattice(word):
            count += 1
    return count


def lr_fillings_by_content(outer, inner):
    """{content: count} of the LR tableaux of outer/inner: every
    semistandard filling with entries at most ℓ(outer), built row by row
    as weakly increasing rows, kept when its reverse reading word is a
    lattice word, then tallied by content."""
    rows = len(outer)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    tally = {}

    def rec(r, above, word):
        if r == rows:
            if is_lattice(word):
                content = tuple(n for n in (word.count(v) for v in
                                            range(1, rows + 1)) if n)
                tally[content] = tally.get(content, 0) + 1
            return
        lead, below = (0,) * inner[r], above[inner[r]:]
        for row in combinations_with_replacement(range(1, rows + 1),
                                                 outer[r] - inner[r]):
            if all(map(gt, row, below)):  # strict down each column
                rec(r + 1, lead + row, word + row[::-1])

    rec(0, (0,) * (outer[0] if outer else 0), ())
    return tally


def naive_ssyt_weights(shape, nvars):
    """Yield the content vector of every semistandard tableau of the given
    shape with entries bounded by nvars."""
    cells = cells_of_skew(shape, ())
    if not cells:
        yield (0,) * nvars
        return

    def rec(idx, grid):
        if idx == len(cells):
            weight = [0] * nvars
            for v in grid.values():
                weight[v - 1] += 1
            yield tuple(weight)
            return
        r, c = cells[idx]
        lo = 1
        if (r, c - 1) in grid:
            lo = max(lo, grid[(r, c - 1)])
        if (r - 1, c) in grid:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, nvars + 1):
            grid[(r, c)] = v
            yield from rec(idx + 1, grid)
        grid.pop((r, c), None)

    yield from rec(0, {})


def naive_schur_poly(shape, nvars):
    """The Schur polynomial as a dict of monomials, from SSYT directly."""
    out = {}
    for w in naive_ssyt_weights(shape, nvars):
        out[w] = out.get(w, 0) + 1
    return out


def sub_partitions(outer):
    """Every partition whose diagram lies inside outer's, read off the
    box of outer's rows."""
    found = []
    for parts in product(*(range(x + 1) for x in outer)):
        if all(a >= b for a, b in zip(parts, parts[1:])):
            found.append(tuple(x for x in parts if x))
    return found


def is_even(nu, mode):
    """Every row even ("rows"), or every column of even height."""
    if mode == "rows":
        return all(x % 2 == 0 for x in nu)
    return len(nu) % 2 == 0 and nu[::2] == nu[1::2]


def even_weights(outer, mode):
    """{α ⊆ outer: Σ c^outer_{αν} over the even ν}, nonzero weights only,
    with one tableau search for every α."""
    out = {}
    for alpha in sub_partitions(outer):
        w = sum(c for nu, c in lr_fillings_by_content(outer, alpha).items()
                if is_even(nu, mode))
        if w:
            out[alpha] = w
    return out


def skew_coproduct(outer, delta):
    """{(a, b): Σ_γ c^outer_{δγ} c^γ_{ab}}: each γ in s_{outer/δ} split by
    the coproduct of s_γ, one tableau search for every a ⊆ γ."""
    out = {}
    for gamma, c in lr_fillings_by_content(outer, delta).items():
        for a in sub_partitions(gamma):
            for b, d in lr_fillings_by_content(gamma, a).items():
                out[a, b] = out.get((a, b), 0) + c * d
    return out
