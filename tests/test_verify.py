import pytest

from branchkit import verify
from branchkit.branching import PAIR_IDS
from branchkit.cli import main
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


def test_report_line_names_the_first_counterexample():
    report = verify.GridReport("o-sum", cases=9)
    assert report.line() == "o-sum: 9 cases, ok"
    report.add(("o-sum", (4, 4), (1,)), ((1,), ()), 1, 0)
    report.add(("o-sum", (4, 4), (2,)), ((2,), ()), 0, 1)
    assert report.line() == (
        "o-sum: 9 cases, 2 mismatches\n"
        "  first counterexample: ('o-sum', (4, 4), (1,)) small=((1,), ())"
        " formula=1 oracle=0")
    assert report.mismatches[1] == {
        "context": ("o-sum", (4, 4), (2,)), "small": ((2,), ()),
        "formula": 0, "oracle": 1}


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


def test_lr_spot_checks_agree_on_500_coefficients():
    # the pruned single-coefficient search against the unpruned one in
    # both factor orders, on shapes up to |λ| = 14
    report = verify.run_lr_spot_checks(500)
    assert report.ok and report.cases == 500, report.mismatches[:5]


# each sweep records a disagreement as (context, small, formula, oracle);
# one side is put off by one and the record is read back


def test_littlewood_sweep_records_a_mismatch(monkeypatch):
    real = verify.littlewood_restriction
    monkeypatch.setattr(verify, "littlewood_restriction",
                        lambda *a: real(*a) + 1)
    report = verify.run_littlewood_consistency(1)
    assert report.cases == 6 and len(report.mismatches) == 6
    assert report.mismatches[0] == {"context": ("O", 2, ()), "small": (),
                                    "formula": 1, "oracle": 2}
    for m in report.mismatches:
        family, n, lam = m["context"]
        assert m["oracle"] == real(lam, m["small"], family, n) + 1
        assert m["formula"] == m["oracle"] - 1


def test_duality_sweep_records_a_mismatch(monkeypatch):
    real = verify.duality_dim_check
    monkeypatch.setattr(verify, "duality_dim_check",
                        lambda kind, d, **kw: real(kind, d, **kw) and d != 5)
    report = verify.run_duality_sweeps()
    # degree 5 of each of the 16 + 4 + 4 + 6 + 6 identities
    assert len(report.mismatches) == 36
    assert report.mismatches[0] == {
        "context": ("cauchy_gl", {"n": 1, "p": 1}), "small": 5,
        "formula": "dimension mismatch", "oracle": ""}
    assert {m["small"] for m in report.mismatches} == {5}


def test_lr_spot_checks_record_a_mismatch(monkeypatch):
    from branchkit import lr

    real = lr.lr_count_direct
    monkeypatch.setattr(lr, "lr_count_direct", lambda *a: real(*a) + 1)
    report = verify.run_lr_spot_checks(5, seed=3)
    assert report.cases == 5 and len(report.mismatches) == 5
    for m in report.mismatches:
        lam, mu, nu = m["context"]
        assert m["small"] == lam
        assert m["formula"] == lr.lr_coeff(lam, mu, nu)
        assert m["oracle"] == (m["formula"] + 1, m["formula"] + 1)


def test_padding_probe_records_a_deviation(monkeypatch, capsys):
    real = verify.diagonal_gl_sum
    monkeypatch.setattr(  # one too high whenever the caps are padded
        verify, "diagonal_gl_sum", lambda lam, mu, nu, caps=None:
        real(lam, mu, nu, caps) + (caps is not None
                                   and caps[0] > len(mu.plus)))
    report = verify.run_padding_probe(2)
    assert report.cases == len(report.mismatches) == 337
    for m in report.mismatches:
        kind, mu, nu = m["context"]
        free = real(m["small"], mu, nu)
        assert kind == "padding"
        assert m["formula"] == (free, free + 1) and m["oracle"] == free
    # a deviation is a finding: verify reports it and still exits 0
    assert main(["verify", "--pair", "all", "--max-size", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "padding-probe: 3805 cases, 3805 deviations (finding, not failure)")
