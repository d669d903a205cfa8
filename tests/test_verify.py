import pytest

from branchkit import verify
from branchkit.branching import PAIR_IDS
from branchkit.errors import UnknownPair
from branchkit.partitions import GLLabel, partitions_up_to
from branchkit.verify import gl_labels, run_grid

# compared cells per grid: gl-diag, gl-sum, the other diagonal and sum
# pairs, and the four restriction pairs
CASES = {
    2: {"gl-diag": 337, "gl-sum": 512, "o-diag": 64, "sp-diag": 64,
        "o-sum": 64, "sp-sum": 64, "gl-in-o": 32, "gl-in-sp": 32,
        "o-in-gl": 32, "sp-in-gl": 32},
    3: {"gl-diag": 3805, "gl-sum": 5832, "o-diag": 343, "sp-diag": 343,
        "o-sum": 343, "sp-sum": 343, "gl-in-o": 126, "gl-in-sp": 126,
        "o-in-gl": 126, "sp-in-gl": 126},
}


@pytest.mark.parametrize("cap", sorted(CASES))
@pytest.mark.parametrize("pair", PAIR_IDS)
def test_grid_cases(pair, cap):
    report = run_grid(pair, cap)
    assert report.ok, report.mismatches[:5]
    assert report.cases == CASES[cap][pair]


def test_gl_labels_order():
    # every (λ+, λ-) by total size, then |λ+|, in partitions_up_to order
    for cap in range(7):
        expected = [GLLabel(pp, mm)
                    for total in range(cap + 1) for a in range(total + 1)
                    for pp in partitions_up_to(a) if sum(pp) == a
                    for mm in partitions_up_to(total - a)
                    if sum(mm) == total - a]
        assert gl_labels(cap) == expected


def test_gl_diag_mismatch_context(monkeypatch):
    # a failing gl-diag cell names its pair, ranks and tensor factors,
    # as every other diagonal grid does
    monkeypatch.setattr(verify, "branch_decompose", lambda *a, **k: {})
    report = run_grid("gl-diag", 1)
    assert report.mismatches
    pair, ranks, (mu, nu) = report.mismatches[0]["context"]
    assert pair == "gl-diag" and isinstance(mu, GLLabel)
    assert ranks == (max(len(mu.plus) + len(mu.minus)
                         + len(nu.plus) + len(nu.minus), 1),)


def test_run_grid_of_an_unknown_pair_is_unknown_pair():
    with pytest.raises(UnknownPair):
        run_grid("nope")


def test_cells_beyond_the_cap_are_compared_at_the_support_rank(monkeypatch):
    # a constituent beyond the size cap is held equal once per big input,
    # at the rank where both maps carry the full support, while a wrong
    # value in a compared cell is found at every rank that compares it
    real = verify.oracle_decomposition
    monkeypatch.setattr(verify, "oracle_decomposition",
                        lambda *a: {**real(*a), (9,): 1})
    report = run_grid("sp-diag", 2)
    assert [m["small"] for m in report.mismatches] == [(9,)] * 16
    assert len({m["context"][2] for m in report.mismatches}) == 16

    monkeypatch.setattr(verify, "oracle_decomposition",
                        lambda *a: {k: m + 1 for k, m in real(*a).items()})
    ranks: dict = {}
    for m in run_grid("sp-diag", 2).mismatches:
        ranks.setdefault(m["context"][2], set()).add(m["context"][1])
    assert max(map(len, ranks.values())) > 1
