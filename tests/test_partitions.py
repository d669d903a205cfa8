import pytest
from hypothesis import given, settings, strategies as st

from branchkit import partitions
from branchkit.errors import NotAPartition, ParseError
from branchkit.partitions import (
    GLLabel,
    conjugate,
    contains,
    double_columns,
    double_rows,
    ensure_partition,
    first_two_columns,
    format_gl_label,
    format_partition,
    is_even_columns,
    is_even_rows,
    meet,
    parse_gl_label,
    parse_partition,
    partitions_of,
    partitions_up_to,
    subpartitions,
)

small_partitions = st.lists(
    st.integers(min_value=1, max_value=6), max_size=5
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def test_parse_basic():
    assert parse_partition("[3,2,1]") == (3, 2, 1)
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("[]") == ()
    assert parse_partition("  [ 4 , 4 ] ") == (4, 4)


# arbitrary text, and bracketed lists of tokens built from digits, signs,
# spaces and non-ASCII digits (which isdigit() accepts but int() may not)
_label_text = st.one_of(
    st.text(max_size=30),
    st.lists(st.text(alphabet="0123456789-+ _.²³١٢", max_size=4),
             max_size=5).map(lambda toks: "[" + ",".join(toks) + "]"),
)


@settings(max_examples=300, deadline=None)
@given(_label_text, _label_text)
def test_parsers_return_a_label_or_a_typed_error(left, right):
    for text in (left, f"{left}/{right}"):
        for parse in (parse_partition, parse_gl_label):
            try:
                label = parse(text)
            except (ParseError, NotAPartition):
                continue
            # a GLLabel is the pair of its partitions
            for part in (label,) if parse is parse_partition else label:
                assert ensure_partition(part) == part, (text, label)
                assert all(type(x) is int for x in part), (text, label)


def test_parse_drops_zeros():
    assert parse_partition("[3,2,0,0]") == (3, 2)
    assert parse_partition("[0]") == ()


def test_parse_rejects_increase():
    with pytest.raises(NotAPartition):
        parse_partition("[2,3]")


def test_parse_rejects_garbage():
    for bad in ("[a,b]", "[1,,2]", "[1.5]", "[-1]"):
        with pytest.raises((ParseError, NotAPartition)):
            parse_partition(bad)


def test_parse_refuses_a_part_past_the_int_digit_limit():
    # int() refuses a decimal string longer than its 4300-digit limit
    huge = "9" * 5000
    with pytest.raises(ParseError, match=f"^bad partition token '{huge}'"):
        parse_partition(f"[{huge}]")


def test_ensure_partition_rejects_negative():
    with pytest.raises(NotAPartition):
        ensure_partition((2, -1))


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(small_partitions)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)
    if p:
        assert len(conjugate(p)) == p[0]


def test_doubling():
    assert double_rows((2, 1)) == (4, 2)
    assert double_rows(()) == ()
    assert double_rows((1, 1, 1)) == (2, 2, 2)
    assert double_columns((2, 1)) == (2, 2, 1, 1)
    assert double_columns(()) == ()
    assert double_columns((1,)) == (1, 1)
    assert is_even_rows(double_rows((3, 1)))
    assert is_even_columns(double_columns((3, 1)))


def test_double_columns_is_conjugated_row_doubling():
    for p in partitions_up_to(12):
        assert double_columns(p) == conjugate(double_rows(conjugate(p)))


def test_contains_examples():
    assert contains((3, 2, 1), (2, 1))
    assert not contains((2,), (3,))
    assert contains((2, 2), ())


def test_contains_partial_order():
    # exhaustive over all partitions of size <= 8
    pool = list(partitions_up_to(8))
    below = {p: {q for q in pool if contains(p, q)} for p in pool}
    for p in pool:
        assert p in below[p]  # reflexive
        for q in below[p]:
            if p in below[q]:
                assert p == q  # antisymmetric
            assert below[q] <= below[p]  # transitive


@given(small_partitions, small_partitions)
def test_meet_is_lower_bound(a, b):
    m = meet(a, b)
    assert contains(a, m) and contains(b, m)


def test_first_two_columns():
    assert first_two_columns(()) == 0
    assert first_two_columns((1, 1, 1)) == 3
    assert first_two_columns((3, 2, 1)) == 5
    assert first_two_columns(conjugate((3, 2, 1))) == 5


def test_partition_counts():
    # partition numbers p(0)..p(10)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, e in enumerate(expected):
        assert len(list(partitions_of(n))) == e
    assert len(list(partitions_of(6, max_length=2))) == 4
    assert len(list(partitions_of(6, max_part=2))) == 4


def test_subpartitions():
    subs = set(subpartitions((2, 1)))
    assert subs == {(), (1,), (2,), (1, 1), (2, 1)}
    assert set(subpartitions((2, 2), 2)) == {(2,), (1, 1)}
    assert set(subpartitions((3,), 5)) == set()
    assert list(subpartitions((), 0)) == [()]


def test_subpartitions_complete_and_duplicate_free():
    for p in partitions_up_to(7):
        got = list(subpartitions(p))
        assert len(got) == len(set(got))
        assert set(got) == {q for q in partitions_up_to(sum(p))
                            if contains(p, q)}
        for k in range(sum(p) + 1):
            sized = list(subpartitions(p, k))
            assert len(sized) == len(set(sized))
            assert sized == sorted({q for q in got if sum(q) == k},
                                   reverse=True)
        assert list(subpartitions(p, -1)) == []
        assert list(subpartitions(p, sum(p) + 1)) == []


def test_subpartitions_of_a_size_beyond_p_walk_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("partitions_of was walked")

    monkeypatch.setattr(partitions, "partitions_of", refuse)
    assert list(subpartitions((8,) * 8, 65)) == []


def test_gl_label_parsing():
    lab = parse_gl_label("[2,1]/[1]")
    assert lab == GLLabel((2, 1), (1,))
    assert parse_gl_label("[2,1]") == GLLabel((2, 1), ())
    assert parse_gl_label("[]/[]") == GLLabel((), ())
    assert format_gl_label(lab) == "[2,1]/[1]"
    assert format_gl_label(GLLabel((2,), ())) == "[2]"
    assert format_partition((3, 2)) == "[3,2]"


def test_gl_label_rank_validity():
    lab = GLLabel((2, 1), (1,))
    assert lab.valid_for_rank(3)
    assert not lab.valid_for_rank(2)
    assert lab.degree() == 2
    assert lab.total_size() == 4
