"""The benchmark's checks (perfbench/workloads.py) against the package.

The benchmark checks each decomposition of decompose-large by exact
Weyl-dimension conservation: the constituents' dimensions, each times its
multiplicity, add up to the big side's.  verify-all's gate is a round that
compares exactly its pinned number of cells with no mismatch.  This runs
one round of each workload through its own checks, so a decomposition
that loses or doubles a constituent, or an oracle change that breaks a
grid, fails here before it reaches the benchmark.  perfbench is only read.
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


def _package():
    return types.SimpleNamespace(lr=lr, branching=branching,
                                 characters=characters, oracle=oracle,
                                 verify=verify, cli=cli, partitions=partitions)


def test_one_round_of_decompose_large_passes_its_checks(tmp_path):
    workload = _load_workloads().DecomposeLarge(_package(), 1, str(tmp_path))
    try:
        workload.start_round()
        ops = workload.round_ops()
        assert len(ops) == 10  # one large label for each pair
        for key, thunk in ops:
            assert workload.check(key, thunk()) == 0, key
    finally:
        workload.close()


def test_one_round_of_verify_all_passes_its_gate(tmp_path):
    workload = _load_workloads().VerifyAll(_package(), 1, str(tmp_path))
    try:
        workload.start_round()
        records = []
        for key, thunk in workload.round_ops():
            output = thunk()
            assert workload.check(key, output) == 0, key
            records.append((key, 0.0, output))
        assert len(records) == 14  # ten grids and four sweeps
        assert workload.round_ok(records)  # exactly the pinned cell count
    finally:
        workload.close()
