import io
import json
import re
import subprocess
import sys

import pytest

from branchkit import lr
from branchkit.branching import PAIR_IDS, PAIRS
from branchkit.cli import EXIT_BROKEN_PIPE, main
from branchkit.partitions import contains


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


LR_321 = ("lr", "--outer", "[3,2,1]", "--left", "[2,1]", "--right", "[2,1]")
# lr reads and fills no memo; this query reads c^{321}_{21,21} = 2 from the
# memo's expansion of (3,2,1)/(2,1), and its answer is that coefficient
BRANCH_321 = ("branch", "--pair", "o-diag", "-n", "12", "--big", "[3,2,1]",
              "--small", "[2,1]", "[2,1]")
# each needs expansions that the file written by BRANCH_321 lacks
DECOMPOSE_O = ("decompose", "--pair", "o-diag", "-n", "12", "--mu", "[2,1]",
               "--nu", "[2]")
DECOMPOSE_SP = ("decompose", "--pair", "gl-in-sp", "-n", "8", "--big", "[2,2]")
OUT_OF_RANGE = ("branch", "--pair", "o-diag", "-n", "3", "--big", "[1]",
                "--small", "[1]", "[1]")


def run_fresh(capsys, *argv):
    """run_cli with the memo emptied first, as a new process starts."""
    lr.clear_cache()
    return run_cli(capsys, *argv)


def keys_of(data: bytes) -> list:
    lr.clear_cache()
    return list(lr.load_cache_lines(io.StringIO(data.decode())))


def test_cache_env_roundtrip(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    code, out, _ = run_fresh(capsys, *BRANCH_321)
    assert code == 0
    assert cache.exists() and cache.read_text().strip()
    code, out, _ = run_fresh(capsys, *BRANCH_321)
    assert code == 0 and json.loads(out)["result"] == 2


def test_unparsable_cache_is_ignored(tmp_path, monkeypatch, capsys):
    # the first line parses but holds a wrong value; the file is loaded
    # all together or not at all, so it must not reach the memo either
    cache = tmp_path / "lr-cache.txt"
    cache.write_text("3.2.1|2.1|2.1:7,3:1\n3.2.1|2.1|garbage\n")
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    code, out, err = run_fresh(capsys, *BRANCH_321)
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


def test_a_command_that_adds_nothing_leaves_the_cache_file_alone(
        tmp_path, monkeypatch, capsys):
    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    assert run_fresh(capsys, *BRANCH_321)[0] == 0
    before, stat = cache.read_bytes(), cache.stat()
    for argv, expected in ((BRANCH_321, 0), (LR_321, 0), (OUT_OF_RANGE, 2)):
        code, out, err = run_fresh(capsys, *argv)
        assert code == expected and "warning" not in err
    # not even rewritten with the same bytes: the file is the same one
    assert cache.read_bytes() == before
    assert cache.stat().st_ino == stat.st_ino
    assert cache.stat().st_mtime_ns == stat.st_mtime_ns


def test_a_command_appends_only_the_keys_the_file_lacked(
        tmp_path, monkeypatch, capsys):
    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    assert run_fresh(capsys, *BRANCH_321)[0] == 0
    assert run_fresh(capsys, *DECOMPOSE_O)[0] == 0
    before = cache.read_bytes()
    inode = cache.stat().st_ino
    old_keys = keys_of(before)
    code, _, err = run_fresh(capsys, *DECOMPOSE_SP)
    assert code == 0 and err == ""
    memo_keys = set(lr._SKEW_CACHE)
    after = cache.read_bytes()
    assert after.startswith(before) and cache.stat().st_ino == inode
    new_keys = keys_of(after[len(before):])
    assert new_keys and len(new_keys) == after[len(before):].count(b"\n")
    assert set(new_keys) == memo_keys - set(old_keys)
    # DECOMPOSE_SP also read expansions the file held; none were repeated
    assert memo_keys & set(old_keys)


def test_lines_appended_by_another_run_survive_the_save(
        tmp_path, monkeypatch, capsys):
    from branchkit import cli

    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    assert run_fresh(capsys, *BRANCH_321)[0] == 0
    assert run_fresh(capsys, *DECOMPOSE_SP)[0] == 0
    theirs = cache.read_bytes()
    cache.write_bytes(theirs[:theirs.index(b"\n") + 1])
    load = cli._load_cache

    def load_then_another_run_appends(path):
        held = load(path)
        with open(path, "ab") as fh:
            fh.write(theirs[theirs.index(b"\n") + 1:])
        return held

    monkeypatch.setattr(cli, "_load_cache", load_then_another_run_appends)
    assert run_fresh(capsys, *DECOMPOSE_O)[0] == 0
    data = cache.read_bytes()
    assert data.startswith(theirs) and len(data) > len(theirs)
    assert set(keys_of(data)) >= set(keys_of(theirs))


def test_an_append_after_a_last_line_without_its_newline_starts_a_line(
        tmp_path, monkeypatch, capsys):
    # a hand edit can drop the file's last newline; the next append must
    # not be glued onto that line, or the run after it refuses the file
    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    assert run_fresh(capsys, *BRANCH_321)[0] == 0
    cache.write_bytes(cache.read_bytes().rstrip(b"\n"))
    for argv in (DECOMPOSE_O, DECOMPOSE_SP):
        code, _, err = run_fresh(capsys, *argv)
        assert code == 0 and err == ""
    memo_keys = set(lr._SKEW_CACHE)
    assert set(keys_of(cache.read_bytes())) == memo_keys
    code, _, err = run_fresh(capsys, *BRANCH_321)
    assert code == 0 and err == ""


@pytest.mark.parametrize("content", [
    b"3.2.1|2.1|2.1:7,3:1\n",  # the format before checksums, and wrong
    b"\xff\xfe not a cache file\n",
    # a wrong value under the checksum of the true 3.2.1|2.1 line
    b"3.2.1|2.1|1.1.1:1,2.1:7,3:1|963e75e5\n",
    # a valid checksum on a key that is not a partition
    b"1.2|1|2:5|99fe6c2c\n",
], ids=["old-format", "garbage", "bad-crc", "non-partition-key"])
def test_a_refused_cache_file_is_rewritten_whole_once(
        tmp_path, monkeypatch, capsys, content):
    cache = tmp_path / "lr-cache.txt"
    cache.write_bytes(content)
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    code, out, err = run_fresh(capsys, *BRANCH_321)
    assert code == 0 and json.loads(out)["result"] == 2
    assert err.startswith("warning: ignoring cache file")
    assert err.count("\n") == 1
    filled = set(lr._SKEW_CACHE)
    assert ((3, 2, 1), (2, 1)) in filled
    rewritten = cache.read_bytes()
    assert content not in rewritten
    assert set(keys_of(rewritten)) == filled
    code, out, err = run_fresh(capsys, *BRANCH_321)
    assert code == 0 and json.loads(out)["result"] == 2 and err == ""
    assert cache.read_bytes() == rewritten


def test_a_poisoned_cache_line_leaves_lr_at_its_true_value(
        tmp_path, monkeypatch, capsys):
    # the line's checksum holds, so the load takes its wrong value; lr
    # searches its one coefficient and never reads the memo
    cache = tmp_path / "lr-cache.txt"
    cache.write_text("3.2.1|2.1|2.1:7,3:1|18830469\n")
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    code, out, err = run_fresh(capsys, *LR_321)
    assert lr.skew_expand((3, 2, 1), (2, 1)) == {(2, 1): 7, (3,): 1}
    assert code == 0 and json.loads(out)["result"] == 2 and err == ""


def test_a_checksummed_line_that_does_not_parse_is_searched_unwarned(
        tmp_path, monkeypatch, capsys):
    # the load checks only the key; the entries are parsed on first use,
    # and an entry text that does not parse is searched instead
    cache = tmp_path / "lr-cache.txt"
    cache.write_text("3.2.1|2.1|junk|7e1b0642\n")
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    for _ in range(2):
        code, out, err = run_fresh(capsys, *BRANCH_321)
        assert code == 0 and json.loads(out)["result"] == 2 and err == ""
    assert cache.read_bytes().startswith(b"3.2.1|2.1|junk|7e1b0642\n")


def test_an_append_spliced_into_another_is_refused_or_true(
        tmp_path, monkeypatch, capsys):
    # two runs appending at once may interleave their writes: put one
    # run's block at every byte offset of the other's
    cache = tmp_path / "lr-cache.txt"
    monkeypatch.setenv("BRANCHKIT_CACHE", str(cache))
    assert run_fresh(capsys, *BRANCH_321)[0] == 0
    base = cache.read_bytes()
    blocks = []
    for argv in (DECOMPOSE_O, DECOMPOSE_SP):
        cache.write_bytes(base)
        assert run_fresh(capsys, *argv)[0] == 0
        blocks.append(cache.read_bytes()[len(base):])
    a, b = blocks
    assert a.count(b"\n") > 1 and b
    truth = {}
    for key in keys_of(base + a + b):
        outer, inner = key
        truth[key] = (lr._skew_fillings(outer, inner)
                      if contains(outer, inner) else {})
        assert lr.skew_expand(*key) == truth[key]
    boundaries = {0} | {i + 1 for i, byte in enumerate(a) if byte == 10}
    for k in range(len(a) + 1):
        data = base + a[:k] + b + a[k:]
        lr.clear_cache()
        try:
            keys = lr.load_cache_lines(io.StringIO(data.decode()))
        except ValueError:
            assert k not in boundaries, k
            assert not lr._SKEW_CACHE
            continue
        assert k in boundaries, k
        assert set(keys) == set(truth)
        assert all(lr.skew_expand(*key) == truth[key] for key in keys)


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


def test_a_part_past_the_int_digit_limit_is_a_parse_error():
    huge = "9" * 5000
    proc = subprocess.run(
        [sys.executable, "-m", "branchkit", "lr", "--outer", f"[{huge}]",
         "--left", "[1]", "--right", "[]"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: bad partition token '{huge}'")
    assert "Traceback" not in proc.stderr


def test_verify_rejects_negative_max_size(capsys):
    code, out, err = run_cli(capsys, "verify", "--pair", "o-diag",
                             "--max-size", "-1")
    assert code == 1 and out == ""
    assert err == "error: --max-size must be >= 0, got -1\n"


def test_verify_refuses_a_seed_that_no_check_reads(capsys, monkeypatch):
    # only the lr-spot sweep reads --seed, and it runs with --pair all
    import branchkit.verify as verify_mod

    code, out, err = run_cli(capsys, "verify", "--pair", "o-diag",
                             "--max-size", "1", "--seed", "5")
    assert (code, out) == (1, "")
    assert err == "error: --seed goes only with --pair all\n"
    seeds = []
    real = verify_mod.run_lr_spot_checks

    def spot(count=60, seed=1):
        seeds.append(seed)
        return real(count, seed)

    monkeypatch.setattr(verify_mod, "run_lr_spot_checks", spot)
    for argv in ([], ["--seed", "5"]):
        code, _, _ = run_cli(capsys, "verify", "--pair", "all",
                             "--max-size", "0", *argv)
        assert code == 0
    assert seeds == [1, 5]


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
    assert out == "o-sum: 91125 cases, ok\n"


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
    lr.clear_cache()
    code = main(list(BRANCH_321))
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


def test_decompose_tsv_flattens_the_result_map(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--pair", "o-in-gl", "-n", "6", "--big", "[2]",
        "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["pair\to-in-gl", "ranks\t[6]", "big\t[2]"]
    assert "result\t[]=1;[2]=1" in lines


@pytest.mark.parametrize("argv, message", [
    (("--pair", "sp-diag", "-n", "2", "--mu", "[1]"),
     "sp-diag decomposition needs --mu and --nu"),
    (("--pair", "sp-diag", "-n", "2", "--nu", "[1]"),
     "sp-diag decomposition needs --mu and --nu"),
    (("--pair", "o-in-gl", "-n", "6"), "o-in-gl decomposition needs --big"),
])
def test_decompose_without_its_labels_exits_one(capsys, argv, message):
    code, out, err = run_cli(capsys, "decompose", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")

