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


@pytest.fixture(scope="module")
def tracer():
    """perfbench's tracer module, loaded as bench loads the others."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        return _load("tracer", mp)


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


#: spans a traced run (perfbench/run.py --trace 1) divides by or takes the
#: quantiles of, per workload; a span never called would divide by zero
TRACED_SPANS = {
    "sweep": ("kernel.w", "amplitudes.g_of_s", "amplitudes.amplitude_v",
              "hpspace.best_approx_error"),
    "cert": ("kernel.w",),
}


@pytest.mark.parametrize("workload", sorted(TRACED_SPANS))
def test_a_traced_command_calls_every_span_the_traced_run_divides_by(
    bench, tracer, tmp_path, workload
):
    workloads, ref = bench
    if workload == "sweep":
        k, alpha = ref["sweep"]["k_values"][0], ref["sweep"]["alpha_values"][0]
        # one worker, so that every call runs in this process, under the tracer
        op = workloads.sweep_op(ref, k, alpha, tmp_path, 1)
    else:
        op = workloads.cert_op(ref)
    tr = tracer.Tracer()
    with tracer.traced(tr):
        result = workloads.run_op(op, ref)
    assert result.problems == ()
    summary = tr.summary()
    assert [name for name in TRACED_SPANS[workload] if summary[name]["calls"] == 0] == []
