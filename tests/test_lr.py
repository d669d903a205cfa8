import random
import zlib
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from branchkit import littlewood_restriction, lr, lr_coeff, skew_expand, tensor_expand
from branchkit.errors import NotAPartition
from branchkit.lr import (
    _SKEW_CACHE,
    _skew_fillings,
    cache_size,
    clear_cache,
    dump_cache_lines,
    even_column_sum,
    even_row_sum,
    expansion_dot,
    load_cache_lines,
    lr_count_direct,
)
from branchkit.partitions import conjugate, contains, partitions_of, partitions_up_to

from bruteforce import lr_fillings_by_content, naive_lr

small_partitions = st.lists(
    st.integers(min_value=1, max_value=4), max_size=4
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def test_lr_basic_values():
    assert lr_coeff((1,), (1,), ()) == 1
    assert lr_coeff((2, 1), (1,), (1, 1)) == 1
    assert lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coeff((2,), (1,), (1, 1)) == 0  # size mismatch
    assert lr_coeff((2, 2), (1,), (1,)) == 0  # size mismatch again
    assert lr_coeff((4, 2), (2, 1), (2, 1)) == 1


def test_lr_against_naive_exhaustive():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for k in range(0, n + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(n - k):
                        assert lr_coeff(lam, mu, nu) == naive_lr(lam, mu, nu), (
                            lam, mu, nu)


def test_skew_expand_examples():
    assert skew_expand((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
    assert skew_expand((2,), (2,)) == {(): 1}
    assert skew_expand((1,), (2,)) == {}


def test_skew_expand_matches_naive():
    for outer in partitions_up_to(6):
        for inner in partitions_up_to(sum(outer)):
            if not contains(outer, inner):
                continue
            exp = skew_expand(outer, inner)
            total = sum(outer) - sum(inner)
            for nu in partitions_of(total):
                assert exp.get(nu, 0) == naive_lr(outer, inner, nu)


def test_skew_fillings_match_the_row_by_row_reference():
    # the reference fills whole semistandard rows and tests the lattice
    # condition only on the finished word: no lattice pruning, no shared
    # kernel.  A content bound w keeps the contents κ with ℓ(κ) <= ℓ(w)
    # and κ₁ <= w₁: each content of the shape and one that is none
    for outer in partitions_up_to(9):
        for inner in partitions_up_to(sum(outer)):
            if not contains(outer, inner):
                continue
            reference = lr_fillings_by_content(outer, inner)
            assert _skew_fillings(outer, inner) == reference, (outer, inner)
            for w in [*reference, (1,) * (sum(outer) - sum(inner) + 1)]:
                assert _skew_fillings(outer, inner, w) == {
                    kappa: n for kappa, n in reference.items()
                    if len(kappa) <= len(w) and kappa[:1] <= w[:1]
                }, (outer, inner, w)


def test_skew_expand_key_order_is_the_search_order():
    # contents appear in the order the search first reaches them
    expansion = skew_expand((6, 5, 4, 3, 2, 1), (3, 2, 1))
    assert list(expansion.items()) == [
        ((6, 5, 4), 1), ((6, 5, 3, 1), 3), ((6, 4, 4, 1), 3),
        ((6, 5, 2, 2), 2), ((6, 5, 2, 1, 1), 3), ((6, 4, 3, 2), 6),
        ((6, 4, 3, 1, 1), 6), ((6, 4, 2, 2, 1), 6), ((5, 5, 4, 1), 3),
        ((5, 5, 3, 2), 6), ((5, 5, 3, 1, 1), 6), ((5, 5, 2, 2, 1), 6),
        ((6, 3, 3, 2, 1), 6), ((5, 4, 4, 2), 6), ((5, 4, 4, 1, 1), 6),
        ((5, 4, 3, 2, 1), 16), ((6, 5, 1, 1, 1, 1), 1),
        ((6, 4, 2, 1, 1, 1), 3), ((5, 5, 2, 1, 1, 1), 3), ((6, 3, 3, 3), 2),
        ((6, 3, 3, 1, 1, 1), 2), ((6, 3, 2, 2, 2), 3),
        ((6, 3, 2, 2, 1, 1), 3), ((5, 4, 3, 3), 6), ((5, 4, 3, 1, 1, 1), 6),
        ((5, 4, 2, 2, 2), 6), ((5, 4, 2, 2, 1, 1), 6), ((5, 3, 3, 3, 1), 6),
        ((5, 3, 3, 2, 2), 6), ((5, 3, 3, 2, 1, 1), 6), ((4, 4, 4, 2, 1), 6),
        ((4, 4, 3, 3, 1), 6), ((4, 4, 3, 2, 2), 6), ((4, 4, 3, 2, 1, 1), 6),
        ((6, 2, 2, 2, 2, 1), 1), ((5, 3, 2, 2, 2, 1), 3), ((4, 4, 4, 3), 2),
        ((4, 4, 4, 1, 1, 1), 2), ((4, 4, 2, 2, 2, 1), 2),
        ((4, 3, 3, 3, 2), 3), ((4, 3, 3, 3, 1, 1), 3),
        ((4, 3, 3, 2, 2, 1), 3), ((3, 3, 3, 3, 2, 1), 1)]


def test_tensor_expand_examples():
    assert tensor_expand((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert tensor_expand((), (3, 1)) == {(3, 1): 1}
    assert tensor_expand((1,), (1,), max_length=1) == {(2,): 1}


def test_tensor_expand_matches_single_coefficients_exhaustive():
    # lr_coeff searches λ/μ (or λ/ν), never the corner-to-corner shape
    shapes = list(partitions_up_to(5))
    for mu in shapes:
        for nu in shapes:
            total = sum(mu) + sum(nu)
            for cap in (None, -1, 0, 1, 2, 3, 4):
                rows = total if cap is None else cap
                expected = {lam: c for lam in partitions_of(total)
                            if len(lam) <= rows
                            and (c := lr_coeff(lam, mu, nu))}
                assert tensor_expand(mu, nu, cap) == expected, (mu, nu, cap)


def test_tensor_expand_searches_the_corner_to_corner_shape():
    # the larger factor sits above and to the right of the smaller one, so
    # both argument orders read one expansion; a binding cap fills no memo
    clear_cache()
    tensor_expand((2, 1), (1,))
    tensor_expand((1,), (2, 1))
    assert set(_SKEW_CACHE) == {((3, 2, 1), (1, 1))}
    clear_cache()
    tensor_expand((2, 1), (1,), max_length=2)
    assert not _SKEW_CACHE


@pytest.mark.parametrize("cap", range(4, 10))
def test_binding_caps_on_a_large_product(cap):
    # the exhaustive test above stops at |μ|, |ν| <= 5 and caps <= 4
    mu, nu = (5, 4, 3, 2, 1), (4, 3, 2, 1)
    full = tensor_expand(mu, nu)
    expected = {lam: c for lam, c in full.items() if len(lam) <= cap}
    assert tensor_expand(mu, nu, cap) == expected
    assert tensor_expand(nu, mu, cap) == expected


def _standard_tableaux(p):
    """f^p, the number of standard Young tableaux of shape p (hook lengths)."""
    cols = conjugate(p)
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(p)) // hooks


@pytest.mark.parametrize("mu,nu", [((6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1)),
                                   ((5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1))])
def test_large_product_hook_identity(mu, nu):
    # Σ_λ c^λ_{μν} f^λ = C(|μ|+|ν|, |μ|) f^μ f^ν: both sides count the
    # standard fillings of μ and ν by complementary sets of labels
    product = tensor_expand(mu, nu)
    assert len(product) == 3743
    assert sum(c * _standard_tableaux(lam) for lam, c in product.items()) == (
        comb(sum(mu) + sum(nu), sum(mu))
        * _standard_tableaux(mu) * _standard_tableaux(nu))


def test_pieri_row_rule():
    # tensoring with a single row adds boxes, no two in one column
    for mu in partitions_up_to(5):
        for k in range(1, 4):
            exp = tensor_expand(mu, (k,))
            for lam, c in exp.items():
                assert c == 1
                padded_mu = tuple(mu) + (0,) * (len(lam) - len(mu))
                assert all(
                    lam[i] >= padded_mu[i] and
                    (i == 0 or lam[i] <= padded_mu[i - 1])
                    for i in range(len(lam))
                )
            count = sum(exp.values())
            assert count == len(list(exp))


@settings(max_examples=150)
@given(small_partitions, small_partitions)
def test_symmetry_random(mu, nu):
    n = sum(mu) + sum(nu)
    pool = [lam for lam in partitions_of(n)]
    rng = random.Random(n)
    for lam in rng.sample(pool, min(4, len(pool))):
        assert lr_count_direct(lam, mu, nu) == lr_count_direct(lam, nu, mu)


@settings(max_examples=150)
@given(small_partitions, small_partitions)
def test_support_properties(mu, nu):
    for lam, c in tensor_expand(mu, nu).items():
        assert c > 0
        assert sum(lam) == sum(mu) + sum(nu)
        assert contains(lam, mu) and contains(lam, nu)


def test_even_sums_and_dot():
    exp = {(2, 2): 1, (2, 1): 3, (4,): 2, (1, 1): 5, (2, 2, 1, 1): 7}
    assert even_row_sum(exp) == 3
    assert even_column_sum(exp) == 13  # (2,2) and (1,1) and (2,2,1,1)
    assert expansion_dot({(1,): 2, (2,): 3}, {(2,): 5}) == 15


def test_lr_coeff_fills_no_memo():
    clear_cache()
    lam, mu, nu = (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (3, 2, 1)
    assert lr_coeff(lam, mu, nu) == lr_count_direct(lam, mu, nu) > 0
    assert lr_coeff(lam, nu, mu) == lr_count_direct(lam, nu, mu) > 0
    assert cache_size() == 0


def test_lr_functions_refuse_an_argument_that_is_no_partition():
    # a negative part or an increasing pair of parts is refused before any
    # search and leaves no memo entry; zero parts pass
    clear_cache()
    for call, args in [(skew_expand, ((1, 2), (1,))),
                       (tensor_expand, ((2,), (1, 2))),
                       (skew_expand, ((2, -1), (1,))),
                       (lr_coeff, ((1, 2), (1,), (2,)))]:
        with pytest.raises(NotAPartition):
            call(*args)
    assert cache_size() == 0
    assert tensor_expand((1, 0), (1,)) == {(2,): 1, (1, 1): 1}


def test_cache_roundtrip():
    skew_expand((3, 2, 1), (2, 1))
    lines = list(dump_cache_lines())
    assert lines
    keys = set(_SKEW_CACHE)
    clear_cache()
    assert load_cache_lines(lines) == keys == set(_SKEW_CACHE)
    assert len(keys) == len(lines)
    assert skew_expand((3, 2, 1), (2, 1)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def _memo_line(text):
    return "%s|%08x" % (text, zlib.crc32(text.encode()))


def test_a_memo_key_that_is_not_a_partition_refuses_the_file():
    good = _memo_line("3.2.1|2.1|3:1,2.1:2,1.1.1:1")
    for bad in ("1.2|1|2:5|99fe6c2c", _memo_line("2.1|0.1|2:1"),
                _memo_line("2.-1|1|1:1")):
        clear_cache()
        with pytest.raises(NotAPartition):
            load_cache_lines([good, bad])
        assert cache_size() == 0
    with pytest.raises(NotAPartition):
        skew_expand((1, 2), (1,))


def _filled_memo_lines():
    clear_cache()
    for mu, nu in [((2, 1), (1,)), ((3, 1), (2, 1)), ((2, 2), (1, 1))]:
        tensor_expand(mu, nu)
    skew_expand((3, 2, 1), (2, 1))
    skew_expand((2,), (1, 1))  # no containment: an empty expansion
    lines = list(dump_cache_lines())
    truth = dict(_SKEW_CACHE)
    clear_cache()
    return lines, truth


def test_an_unread_memo_dumps_its_file_lines_byte_for_byte():
    lines, truth = _filled_memo_lines()
    assert "2|1.1||" in "\n".join(lines)
    load_cache_lines(lines)
    assert list(dump_cache_lines()) == lines
    for key in list(_SKEW_CACHE):
        assert skew_expand(*key) == truth[key]
    assert list(dump_cache_lines()) == lines


@pytest.mark.parametrize("entries", [
    "junk", "2.1:7,3", "2.1:x", "2.1:7:3", "a.b:1", "2.1:2,,3:1"])
def test_a_checksummed_entry_text_that_does_not_parse_is_searched(entries):
    clear_cache()
    load_cache_lines([_memo_line("3.2.1|2.1|" + entries)])
    assert skew_expand((3, 2, 1), (2, 1)) == _skew_fillings((3, 2, 1), (2, 1))


def test_a_load_parses_only_the_entries_that_are_read(monkeypatch):
    lines, truth = _filled_memo_lines()
    calls = []
    parse = lr._parse_entries

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(lr, "_parse_entries", counting)
    load_cache_lines(lines)
    assert calls == [] and len(lines) > 2
    key = ((3, 2, 1), (2, 1))
    assert skew_expand(*key) == truth[key]
    assert skew_expand(*key) == truth[key]
    assert len(calls) == 1


def test_public_skew_expand_is_read_only():
    view = skew_expand((2, 1), (1,))
    with pytest.raises(TypeError):
        view[(2,)] = 99
    assert littlewood_restriction((2, 1), (1,), "O", 6) == 1
