"""The benchmark tracer (perfbench/tracer.py) against the package.

The tracer wraps names that the package's modules look up in one another;
a name it wraps that the package no longer has breaks only traced
benchmark runs.  This installs the tracer on the package, runs one small
traced grid and takes the wrappers out again.  perfbench is only read.
"""

import importlib.util
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
