import io
import json
import re
import subprocess
import sys

import pytest

from branchkit.branching import PAIR_IDS, PAIRS
from branchkit.cli import EXIT_BROKEN_PIPE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_branch_example(capsys):
    code, out, _ = run_cli(
        capsys, "branch", "--pair", "o-in-gl", "-n", "6",
        "--big", "[2]/[]", "--small", "[]")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == 1
    assert rec["stable_range"] is True
    assert rec["pair"] == "o-in-gl"


def test_branch_stable_range_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "branch", "--pair", "o-diag", "-n", "3",
        "--big", "[1]", "--small", "[1]", "[1]")
    assert code == 2
    assert "2.1.2" in err


def test_branch_gl_diag_pieri(capsys):
    code, out, _ = run_cli(
        capsys, "branch", "--pair", "gl-diag", "-n", "4",
        "--big", "[2]/[]", "--small", "[1]/[]", "[1]/[]")
    assert code == 0
    assert json.loads(out)["result"] == 1


def test_branch_unsafe_flag(capsys):
    code, out, _ = run_cli(
        capsys, "branch", "--pair", "o-diag", "-n", "3",
        "--big", "[1]", "--small", "[1]", "[1]", "--unsafe")
    assert code == 0
    rec = json.loads(out)
    assert rec["stable_range"] is False


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "branch", "--pair", "o-in-gl", "-n", "6",
        "--big", "[2,3]", "--small", "[]")
    assert code == 1
    assert "increase" in err


def test_decompose_bilinear(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--pair", "o-in-gl", "-n", "6", "--big", "[2]")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == {"[]": 1, "[2]": 1}


def test_decompose_diag(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--pair", "sp-diag", "-n", "2",
        "--mu", "[]", "--nu", "[]")
    assert code == 0
    assert json.loads(out)["result"] == {"[]": 1}


def test_decompose_gl_sum_standard(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--pair", "gl-sum", "-n", "2", "-m", "2",
        "--big", "[1]/[]")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["result"]) == 2
    assert all(v == 1 for v in rec["result"].values())


def test_lr_examples(capsys):
    code, out, _ = run_cli(capsys, "lr", "--outer", "[3,2,1]",
                           "--left", "[2,1]", "--right", "[2,1]")
    assert code == 0 and json.loads(out)["result"] == 2
    code, out, _ = run_cli(capsys, "lr", "--outer", "[1]",
                           "--left", "[1]", "--right", "[]")
    assert code == 0 and json.loads(out)["result"] == 1
    code, out, _ = run_cli(capsys, "lr", "--outer", "[2]",
                           "--left", "[1]", "--right", "[1,1]")
    assert code == 0 and json.loads(out)["result"] == 0


def test_verify_single_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "o-diag",
                           "--max-size", "2")
    assert code == 0
    assert "o-diag" in out and "0 mismatches" not in out  # prints "ok"


def test_verify_bad_pair(capsys):
    code, _, err = run_cli(capsys, "verify", "--pair", "bogus")
    assert code == 1


def test_json_round_trip_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "branch", "--pair", "sp-in-gl", "-n", "3",
        "--big", "[1,1]/[]", "--small", "[]")
    assert code == 0
    line = out.strip()
    rec = json.loads(line)
    assert json.dumps(rec, separators=(",", ":"), ensure_ascii=False) == line


def test_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "lr", "--outer", "[2,1]", "--left", "[1]",
        "--right", "[1,1]", "--format", "tsv")
    assert code == 0
    assert "result\t1" in out.splitlines()


def test_cache_env_roundtrip(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    code, out, _ = run_cli(capsys, "lr", "--outer", "[3,2,1]",
                           "--left", "[2,1]", "--right", "[2,1]")
    assert code == 0
    assert cache.exists() and cache.read_text().strip()
    code, out, _ = run_cli(capsys, "lr", "--outer", "[3,2,1]",
                           "--left", "[2,1]", "--right", "[2,1]")
    assert code == 0 and json.loads(out)["result"] == 2


def test_unparsable_cache_is_ignored(tmp_path, monkeypatch, capsys):
    from branchkit import lr

    # the first line parses but holds a wrong value; the file is loaded
    # all together or not at all, so it must not reach the memo either
    cache = tmp_path / "lr-cache.txt"
    cache.write_text("3.2.1|2.1|2.1:7,3:1\n3.2.1|2.1|garbage\n")
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    lr.clear_cache()
    code, out, err = run_cli(capsys, "lr", "--outer", "[3,2,1]",
                             "--left", "[2,1]", "--right", "[2,1]")
    assert code == 0 and json.loads(out)["result"] == 2
    assert err.startswith("warning:")


def test_unwritable_cache_keeps_exit_code(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "missing-dir" / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    code, out, err = run_cli(capsys, "lr", "--outer", "[3,2,1]",
                             "--left", "[2,1]", "--right", "[2,1]")
    assert code == 0 and json.loads(out)["result"] == 2
    assert err.startswith("warning:")
    assert not (tmp_path / "missing-dir").exists()
    code, _, err = run_cli(capsys, "branch", "--pair", "o-diag", "-n", "3",
                           "--big", "[1]", "--small", "[1]", "[1]")
    assert code == 2
    assert "warning:" in err and "2.1.2" in err


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "branchkit", "lr", "--outer", "[2,1]",
         "--left", "[1]", "--right", "[1,1]"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == 1


def test_missing_required_small(capsys):
    code, _, err = run_cli(
        capsys, "branch", "--pair", "o-diag", "-n", "8",
        "--big", "[1]", "--small", "[1]")
    assert code == 1


def test_two_rank_pair_needs_m(capsys):
    code, _, err = run_cli(
        capsys, "branch", "--pair", "gl-sum", "-n", "2",
        "--big", "[1]/[]", "--small", "[1]/[]", "[]/[]")
    assert code == 1
    assert "-m" in err


def test_usage_error_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["branch"])  # missing required arguments
    assert exc.value.code == 1


def test_verify_mismatch_exit_three(capsys, monkeypatch):
    import branchkit.verify as verify_mod

    def fake_grid(pair, max_size=None):
        report = verify_mod.GridReport(pair)
        report.cases = 1
        report.add((pair, (2,), ()), (), 1, 0)
        return report

    monkeypatch.setattr(verify_mod, "run_grid", fake_grid)
    code, out, _ = run_cli(capsys, "verify", "--pair", "o-diag",
                           "--max-size", "1")
    assert code == 3
    assert "first counterexample" in out


def test_decompose_rejects_negative_rank(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "--pair", "o-diag", "-n", "-2",
        "--mu", "[1]", "--nu", "[1]", "--unsafe")
    assert code == 1 and out == ""
    assert err == "error: negative rank -2\n"
    code, _, err = run_cli(
        capsys, "decompose", "--pair", "gl-sum", "-n", "3", "-m", "-1",
        "--big", "[1]", "--unsafe")
    assert code == 1 and err == "error: negative rank -1\n"


@pytest.mark.parametrize("pair", PAIR_IDS)
def test_a_negative_rank_exits_one_from_branch_and_decompose(capsys, pair):
    rule = PAIRS[pair]
    branch = ["branch", "--pair", pair, "--big", "[]",
              "--small", *["[]"] * rule.small_count]
    decompose = ["decompose", "--pair", pair,
                 *(["--mu", "[]", "--nu", "[]"] if rule.kind == "diag"
                   else ["--big", "[]"])]
    ranks = ([["-n", "-1", "-m", "3"], ["-n", "3", "-m", "-1"]]
             if rule.kind == "sum" else [["-n", "-1"]])
    for argv in (branch, decompose):
        for rank_args in ranks:
            code, out, err = run_cli(capsys, *argv, *rank_args)
            assert (code, out, err) == (1, "", "error: negative rank -1\n"), (
                argv, rank_args)


@pytest.mark.parametrize("argv", [
    ["lr", "--outer", "[3,²]", "--left", "[2]", "--right", "[1]"],
    ["branch", "--pair", "gl-diag", "-n", "3", "--big", "[1]/[²]",
     "--small", "[1]", "[]"],
])
def test_unicode_digit_is_a_parse_error(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "branchkit", *argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bad partition token '²'")
    assert "Traceback" not in proc.stderr


def test_verify_rejects_negative_max_size(capsys):
    code, out, err = run_cli(capsys, "verify", "--pair", "o-diag",
                             "--max-size", "-1")
    assert code == 1 and out == ""
    assert err == "error: --max-size must be >= 0, got -1\n"


def test_branch_rejects_m_on_one_rank_pair(capsys):
    code, out, err = run_cli(
        capsys, "branch", "--pair", "o-diag", "-n", "8",
        "--big", "[1]", "--small", "[1]", "[]", "-m", "3")
    assert code == 1 and out == ""
    assert err == "error: o-diag takes only -n\n"


def test_decompose_rejects_m_on_one_rank_pair(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "--pair", "o-in-gl", "-n", "6", "-m", "2",
        "--big", "[2]")
    assert code == 1 and out == ""
    assert err == "error: o-in-gl takes only -n\n"


def test_decompose_rejects_negative_bound(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "--pair", "o-in-gl", "-n", "6", "--big", "[2]",
        "--bound", "-1")
    assert code == 1 and out == ""
    assert err == "error: --bound must be >= 0, got -1\n"
    code, out, _ = run_cli(
        capsys, "decompose", "--pair", "o-in-gl", "-n", "6", "--big", "[2]",
        "--bound", "0")
    assert code == 0 and json.loads(out)["result"] == {"[]": 1}


def test_decompose_rejects_big_on_a_diagonal_pair(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "--pair", "o-diag", "-n", "8",
        "--mu", "[1]", "--nu", "[1]", "--big", "[2]")
    assert code == 1 and out == ""
    assert err == "error: o-diag takes --mu/--nu, not --big\n"


@pytest.mark.parametrize("extra", [["--mu", "[1]"], ["--nu", "[1]"]])
def test_decompose_rejects_mu_nu_on_a_big_label_pair(capsys, extra):
    code, out, err = run_cli(
        capsys, "decompose", "--pair", "o-in-gl", "-n", "6", "--big", "[2]",
        *extra)
    assert code == 1 and out == ""
    assert err == "error: o-in-gl takes --big, not --mu/--nu\n"


SWEEPS = ["littlewood", "duality", "lr-spot"]


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    # one line per grid and per sweep, the padding probe, then the verdict
    assert [line.split(":")[0] for line in lines[:-2]] == [*PAIR_IDS, *SWEEPS]
    assert all(line.endswith(" cases, ok") for line in lines[:-2])
    assert lines[-2].startswith("padding-probe: ")
    assert lines[-1] == "selftest: PASS"


def test_verify_all_at_a_small_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "all",
                           "--max-size", "2")
    assert code == 0
    lines = out.splitlines()
    # one line per grid and per sweep, then the padding probe's finding
    assert [line.split(":")[0] for line in lines[:-1]] == [*PAIR_IDS, *SWEEPS]
    assert all(line.endswith(" cases, ok") for line in lines[:-1])
    assert re.fullmatch(r"padding-probe: \d+ cases, (no deviations|\d+ "
                        r"deviations \(finding, not failure\))", lines[-1])


def test_verify_runs_the_library_caps_by_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "o-sum")
    assert code == 0
    assert out == "o-sum: 27000 cases, ok\n"


def test_verify_all_passes_no_cap_to_the_grids(capsys, monkeypatch):
    import branchkit.verify as verify_mod

    caps = {}

    def fake_grid(pair, max_size=None):
        caps[pair] = max_size
        return verify_mod.GridReport(pair)

    monkeypatch.setattr(verify_mod, "run_grid", fake_grid)
    code, out, _ = run_cli(capsys, "verify", "--pair", "all")
    assert code == 0
    assert caps == dict.fromkeys(PAIR_IDS)
    assert "littlewood: 1110 cases, ok" in out.splitlines()
    caps.clear()
    code, out, _ = run_cli(capsys, "verify", "--pair", "all",
                           "--max-size", "1")
    assert caps == dict.fromkeys(PAIR_IDS, 1)
    assert "littlewood: 22 cases, ok" in out.splitlines()


def test_selftest_is_verify_at_cap_two(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "all",
                           "--max-size", "2")
    assert code == 0
    code, selftest, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert selftest == out + "selftest: PASS\n"


def test_selftest_fails_on_a_mismatch(capsys, monkeypatch):
    import branchkit.verify as verify_mod

    real = verify_mod.run_grid

    def fake_grid(pair, max_size=None):
        report = real(pair, max_size)
        if pair == "sp-in-gl":
            report.add((pair, (2,), ()), (), 1, 0)
        return report

    monkeypatch.setattr(verify_mod, "run_grid", fake_grid)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 3
    lines = out.splitlines()
    assert "sp-in-gl: 32 cases, 1 mismatches" in lines
    assert lines[-1] == "selftest: FAIL"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_four_and_still_writes_the_cache(
        tmp_path, monkeypatch, capsys):
    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["lr", "--outer", "[3,2,1]", "--left", "[2,1]",
                 "--right", "[2,1]"])
    assert code == EXIT_BROKEN_PIPE == 4
    assert capsys.readouterr().err == ""
    assert "3.2.1|2.1|" in cache.read_text()


def test_verify_into_a_pipe_closed_after_one_line_prints_no_traceback():
    # unbuffered, so each report line is its own write and the padding
    # probe's line comes after the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "branchkit", "verify", "--pair", "all",
         "--max-size", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert first.startswith("gl-diag: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("pair", PAIR_IDS)
def test_unsafe_still_refuses_a_label_invalid_for_its_group(capsys, pair):
    # [1,1,1] has too many parts for every group at n = m = 1; --unsafe
    # lifts the stable range, not the label's own constraints
    kind = PAIRS[pair].kind
    ranks = ["-n", "1", "-m", "1"] if kind == "sum" else ["-n", "1"]
    bad, empty = "[1,1,1]", "[]"
    if kind == "diag":
        branch = ["--big", empty, "--small", bad, empty]
        decompose = ["--mu", bad, "--nu", empty]
    else:
        small = [empty] * PAIRS[pair].small_count
        branch = ["--big", bad, "--small", *small]
        decompose = ["--big", bad]
    for argv in (["branch", *branch], ["decompose", *decompose]):
        args = [argv[0], "--pair", pair, *ranks, *argv[1:]]
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "", args
        code, out, err = run_cli(capsys, *args, "--unsafe")
        assert code == 1 and out == "", args
        assert err.startswith("error: "), args
