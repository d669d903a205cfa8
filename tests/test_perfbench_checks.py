"""The benchmark's decompose-large check (perfbench/workloads.py) against
the package.

The benchmark checks each decomposition by exact Weyl-dimension
conservation: the constituents' dimensions, each times its multiplicity,
add up to the big side's.  This runs one round of that workload through
its own check, so a decomposition that loses or doubles a constituent
fails here before it reaches the benchmark.  perfbench is only read.
"""

import importlib.util
import types
from pathlib import Path

from branchkit import branching, characters, cli, lr, oracle, partitions, verify

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_of_decompose_large_passes_its_checks(tmp_path):
    bk = types.SimpleNamespace(lr=lr, branching=branching,
                               characters=characters, oracle=oracle,
                               verify=verify, cli=cli, partitions=partitions)
    workload = _load_workloads().DecomposeLarge(bk, 1, str(tmp_path))
    try:
        workload.start_round()
        ops = workload.round_ops()
        assert len(ops) == 10  # one large label for each pair
        for key, thunk in ops:
            assert workload.check(key, thunk()) == 0, key
    finally:
        workload.close()
