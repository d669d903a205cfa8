"""The benchmark tracer (perfbench/tracer.py) against the package.

The tracer wraps names that the package's modules look up in one another;
a name it wraps that the package no longer has breaks only traced
benchmark runs.  This installs the tracer on the package, runs one small
traced grid and takes the wrappers out again.  perfbench is only read.
"""

import contextlib
import importlib.util
import io
import types
from pathlib import Path

from branchkit import branching, characters, cli, lr, oracle, verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_runs_and_unpatches():
    bk = types.SimpleNamespace(lr=lr, branching=branching,
                               characters=characters, oracle=oracle,
                               verify=verify, cli=cli)
    tracer = _load_tracer().Tracer()
    try:
        entries = tracer.install(bk, {"verify.grid.o-sum": verify.run_grid})
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original, replacement in patched:
            assert getattr(owner, attr) is replacement, attr
        assert entries["verify.grid.o-sum"]("o-sum", 1).ok
        metrics = tracer.metrics()
        assert metrics["verify.grid.o-sum_s"] > 0
        assert metrics["oracle.calls"] > 0
    finally:
        tracer.unpatch()
    for owner, attr, original, _ in patched:
        assert getattr(owner, attr) is original, attr


def test_the_tracer_times_the_cache_of_traced_cli_requests(tmp_path,
                                                           monkeypatch):
    # the benchmark's traced cli-cached run wraps _load_cache and
    # _save_cache and reads their spans; each request loads and saves
    monkeypatch.setenv("BRANCHKIT_CACHE", str(tmp_path / "lr-cache.txt"))
    bk = types.SimpleNamespace(lr=lr, branching=branching,
                               characters=characters, oracle=oracle,
                               verify=verify, cli=cli)
    tracer = _load_tracer().Tracer()
    try:
        entries = tracer.install(bk, {"cli.main": cli.main})
        patched = list(tracer._patched)
        for argv in (["lr", "--outer", "[3,2,1]", "--left", "[2,1]",
                      "--right", "[2,1]"],
                     ["decompose", "--pair", "o-diag", "-n", "12",
                      "--mu", "[2,1]", "--nu", "[2]"]):
            lr.clear_cache()
            with contextlib.redirect_stdout(io.StringIO()):
                assert entries["cli.main"](argv) == 0
        metrics = tracer.metrics()
        assert metrics["cli.cache_load_s"] > 0
        assert metrics["cli.cache_save_s"] > 0
    finally:
        tracer.unpatch()
    for owner, attr, original, _ in patched:
        assert getattr(owner, attr) is original, attr
