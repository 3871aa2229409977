"""Every input of the benchmark's pools gives the output the benchmark
accepts: the sweep's (k, alpha) pairs, the region boxes and the cert, each
run as one command through perfbench's own runner and checks. Output that
drifts past those checks fails here, not first in a benchmark run.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

#: inputs in each workload's pool in perfbench/reference.json
POOL_SIZES = {"sweep": 85, "region": 16, "cert": 1}


def _load(name: str, mp: pytest.MonkeyPatch):
    # registered under its bare name while the patch lasts, as perfbench's
    # modules import each other (and dataclasses look the module up)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """perfbench's checks and workloads modules and its reference, loaded
    from their files without writing anything next to them.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        checks = _load("checks", mp)
        workloads = _load("workloads", mp)
    return workloads, checks.load_reference()


def _ops(workload, workloads, ref, workdir):
    # built one at a time, each just before it runs: every sweep operation
    # rewrites the same config file
    if workload == "sweep":
        for k in ref["sweep"]["k_values"]:
            for alpha in ref["sweep"]["alpha_values"]:
                yield workloads.sweep_op(ref, k, alpha, workdir, workloads.parallelism())
    elif workload == "region":
        for index in range(len(ref["region"]["configs"])):
            yield workloads.region_op(ref, index, workdir)
    else:
        yield workloads.cert_op(ref)


@pytest.mark.parametrize("workload", sorted(POOL_SIZES))
def test_every_benchmark_input_passes_the_benchmark_checks(bench, tmp_path, workload):
    workloads, ref = bench
    problems, n_ops = [], 0
    for op in _ops(workload, workloads, ref, tmp_path):
        problems += [f"{op.key}: {problem}" for problem in workloads.run_op(op, ref).problems]
        n_ops += 1
    assert n_ops == POOL_SIZES[workload]
    assert problems == []
