"""End-to-end and per-layer benchmark of the shadowhp command line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): sweep, cert, region. Each is a closed loop
with one client: the next CLI command starts when the previous one has
returned. Every command's output is checked against reference.json.

--trace 0 measures the end-to-end metrics for --seconds seconds, untraced:
setup_s (median over fresh interpreters of importing shadowhp plus one
small warm-up command), rows_per_s and points_per_s (output records and
evaluation points per second of command time), op_p50_s and op_tail_s
(median and 90th percentile of one command's time), peak_rss_mb and
ok_frac (commands that succeeded and passed the check, over commands
attempted; failed / attempted is its complement).

Times are scaled to a nominal machine speed. On a shared host the same
command runs up to ~1.7x slower for seconds or minutes at a time, which
no statistic over a 30 s run averages out. So a fixed pure-Python task
(calibrate) is timed just before and just after every command and every
set-up interpreter, and that interval's wall time is multiplied by
CAL_NOMINAL_S over the mean of the two task times. A change to the
program moves the scaled times as it moves the wall times. The unscaled
wall-clock figures are printed on the `detail` line.

--trace 1 ignores --workload and --seconds: it runs a fixed slice
(TRACE_OPS) of every workload, so that each traced run gives every
per-layer metric. Each slice runs untraced (for sweep serially and in
parallel), then serially with every layer's public functions wrapped
(tracer.py). It reports per-layer counts, self times and ratios under
"<workload>.<layer>.<metric>", plus each workload's tracing overhead. Counts repeat exactly for a given seed.
Span times are wall clock; the pass times behind serial_wall_s,
pool_efficiency and overhead_frac are scaled to nominal speed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when any output fails
its check and 2 when the program cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed per run for setup_s
SETUP_REPEATS = 9
#: operations per workload in one traced run; fixed, so counts repeat
TRACE_OPS = {"sweep": 40, "cert": 16, "region": 24}
#: percentile of op_tail_s; runs are sized for 200 or more operations, so
#: 20 or more lie beyond it
TAIL_PERCENTILE = 90.0
#: iterations of the calibration task, and the task time that defines
#: nominal machine speed (about its median on the 2-core machine the
#: benchmark was made on)
CAL_ITERATIONS = 1500
CAL_NOMINAL_S = 2e-3
#: points of the big_f sample checked against mpmath in each cert run
MPMATH_POINTS = 40

SETUP_CODE = """
import io, sys, time
from contextlib import redirect_stdout
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import shadowhp.cli
with redirect_stdout(io.StringIO()):
    code = shadowhp.cli.main(sys.argv[2:])
elapsed = time.perf_counter() - t0
if code != 0:
    sys.exit(f"warm-up command exited {code}")
print(repr(elapsed))
"""


def quantile(values, q: float, weights=None) -> float:
    """Weighted q-th percentile: the smallest value whose cumulative weight
    reaches q percent of the total.
    """
    order = np.argsort(values)
    w = np.ones(len(values)) if weights is None else np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w)
    return float(np.asarray(values)[order][np.searchsorted(cum, q / 100.0 * cum[-1])])


def op_figures(timed, walls) -> dict[str, float]:
    """rows_per_s, points_per_s, op_p50_s and op_tail_s of the timed
    operations, given one wall time per operation.

    The figures are taken per input. A run ends part-way through a pass
    over the input pool, so some inputs are visited once more than others;
    weighted by 1 / visits, every input counts once, and the figures do not
    depend on where the seed's order put the cheap and the costly inputs.
    Throughput uses each input's median time, which drops a visit slowed by
    another process. Inputs with a failed visit add no rows or points.
    """
    groups = defaultdict(list)
    for r, w in zip(timed, walls):
        groups[r.op.key].append((r, w))
    busy = sum(statistics.median(w for _, w in g) for g in groups.values())
    done = [g[0][0].op for g in groups.values() if all(r.ok for r, _ in g)]
    weights = [1.0 / len(groups[r.op.key]) for r in timed]
    return {
        "rows_per_s": sum(op.rows for op in done) / busy,
        "points_per_s": sum(op.points for op in done) / busy,
        "op_p50_s": quantile(walls, 50.0, weights),
        "op_tail_s": quantile(walls, TAIL_PERCENTILE, weights),
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace) -> dict:
    import scipy

    import shadowhp

    return {
        "kernel_backend": shadowhp.KERNEL_BACKEND,
        "shadowhp": shadowhp.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def warmup_argv(workload: str, workdir: Path) -> list[str]:
    """The smallest command of each workload, for setup_s."""
    if workload == "sweep":
        cfg = workdir / "setup.cfg"
        cfg.write_text(
            f"k_values=4\nalpha_values={checks.fmt(math.pi)}\np_values=2\n"
            f"output={workdir / 'setup.csv'}\n",
            encoding="ascii",
        )
        return ["experiment", str(cfg)]
    if workload == "cert":
        return ["cert", "--n-samples", "1000"]
    return ["region", "--R", "1", "--beta", "2", "--nx", "8", "--ny", "8",
            "--output", str(workdir / "setup-region.csv")]


def measure_setup(workload: str, workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_REPEATS fresh interpreters, and the speed factor
    measured around each.
    """
    argv = warmup_argv(workload, workdir)
    times, speed = [], []
    for _ in range(SETUP_REPEATS):
        proc, factor = at_nominal_speed(
            subprocess.run, [sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        speed.append(factor)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times, speed


def mpmath_sample(seed: int) -> list[complex]:
    """Seeded points of the bounded sector arg z in [-pi/2, pi], |z| <= 40."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5 * math.pi, math.pi, MPMATH_POINTS)
    radius = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), MPMATH_POINTS))
    return [complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(radius, theta)]


def _probe(m: int, z: complex) -> complex:
    return z * z / m + 1.0 / (2.0 * m - 1.0)


def calibrate() -> float:
    """Seconds for a fixed pure-Python task that mixes what the commands do
    (function calls, complex arithmetic, float formatting, list and string
    building): a probe of how fast the machine runs at this moment.
    """
    t0 = time.perf_counter()
    z = 0.3 + 0.4j
    lines = []
    for m in range(1, CAL_ITERATIONS):
        v = _probe(m, z)
        lines.append(f"{v.real:.17g},{int(v.imag > 0.1)}")
    "\n".join(lines)
    return time.perf_counter() - t0


def at_nominal_speed(fn, *args, **kwargs):
    """Run fn between two calibration loops. Returns its result and the
    factor that scales a time measured during it to nominal machine speed.
    """
    before = calibrate()
    out = fn(*args, **kwargs)
    return out, CAL_NOMINAL_S / (0.5 * (before + calibrate()))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, ref: dict, workdir: Path):
    setup, setup_speed = measure_setup(workload, workdir)
    stream = workloads.op_stream(workload, seed, ref, workdir, workloads.parallelism())
    # outputs are dropped once checked, so that peak_rss_mb is the program's
    warmup = dataclasses.replace(workloads.run_op(next(stream), ref), text="")  # not timed
    timed, speed = [], []
    t_end = time.perf_counter() + seconds
    while not timed or time.perf_counter() < t_end:
        result, factor = at_nominal_speed(workloads.run_op, next(stream), ref)
        timed.append(dataclasses.replace(result, text=""))
        speed.append(factor)
        del result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [warmup] + timed
    problems = [p for r in results for p in r.problems]
    attempted, failed = len(results), sum(not r.ok for r in results)
    if workload == "cert":
        bad = checks.check_big_f_mpmath(mpmath_sample(seed))
        problems += bad
        attempted += 1
        failed += bool(bad)

    wall_clock = op_figures(timed, [r.wall_s for r in timed])
    nominal = op_figures(timed, [r.wall_s * f for r, f in zip(timed, speed)])
    units = {"rows_per_s": "1/s", "points_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s"}
    metrics = {"setup_s": metric(statistics.median(t * f for t, f in zip(setup, setup_speed)), "s")}
    metrics.update({name: metric(nominal[name], unit) for name, unit in units.items()})
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    metrics["ok_frac"] = metric((attempted - failed) / attempted, "ratio")
    detail = {
        "timed_ops": len(timed),
        "timed_inputs": len({r.op.key for r in timed}),
        "op_tail_percentile": TAIL_PERCENTILE,
        "speed_factor_median": statistics.median(speed),
        "wall_clock": wall_clock,
        "setup_s_samples": setup,
        "parallelism": workloads.parallelism() if workload == "sweep" else 1,
        "problems": problems[:20],
    }
    return metrics, attempted, failed, detail


def run_pass(workload: str, seed: int, ref: dict, workdir: Path, n_workers: int):
    """One fixed slice of the workload: (results, seconds at nominal speed)."""
    ops = workloads.op_stream(workload, seed, ref, workdir, n_workers)
    results, total = [], 0.0
    for _ in range(TRACE_OPS[workload]):
        result, factor = at_nominal_speed(workloads.run_op, next(ops), ref)
        results.append(result)
        total += result.wall_s * factor
    return results, total


def traced_workload(workload: str, seed: int, ref: dict, workdir: Path):
    """Untraced and traced passes over the same operations.

    Returns the workload's per-layer metrics, every operation's result and
    the problems found beyond each operation's own check.
    """
    untraced, wall_u = run_pass(workload, seed, ref, workdir, 1)
    results = list(untraced)
    if workload == "sweep":
        n_workers = workloads.parallelism()
        parallel, wall_p = run_pass(workload, seed, ref, workdir, n_workers)
        results += parallel
    tr = tracer.Tracer()
    with tracer.traced(tr):
        traced, wall_t = run_pass(workload, seed, ref, workdir, 1)
    results += traced
    problems = []
    if workload == "sweep":
        # determinism contract: the CSV body does not depend on tracing or parallelism
        for a, b, c in zip(parallel, untraced, traced):
            if a.ok and b.ok and c.ok and not a.text == b.text == c.text:
                problems.append(f"sweep CSV differs across passes for k, alpha = {a.op.key}")

    span = tr.summary()
    w = span["kernel.w"]
    m = {
        "cli.self_s": metric(span["cli.main"]["self_s"], "s"),
        "cli.bytes_written": metric(sum(r.bytes_written for r in traced), "bytes"),
        "trace.overhead_frac": metric(wall_t / wall_u - 1.0, "ratio"),
    }
    if workload in ("sweep", "cert"):
        m.update({
            "kernel.w_calls": metric(w["calls"], "count"),
            "kernel.w_self_s": metric(w["self_s"], "s"),
            "kernel.w_ns_per_call": metric(w["self_s"] / w["calls"] * 1e9, "ns"),
            "specfun.big_f_calls": metric(span["specfun.big_f"]["calls"], "count"),
            "specfun.big_f_self_s": metric(span["specfun.big_f"]["self_s"], "s"),
        })
    if workload == "cert":
        m["specfun.cert_loop_self_s"] = metric(span["specfun.sector_bound_cert"]["self_s"], "s")
    if workload == "region":
        m.update({
            "kernel.w_calls": metric(w["calls"], "count"),
            "geometry.region_label_calls": metric(span["geometry.region_label"]["calls"], "count"),
            "geometry.region_label_self_s": metric(span["geometry.region_label"]["self_s"], "s"),
        })
    if workload == "sweep":
        v, g = span["amplitudes.amplitude_v"], span["amplitudes.g_of_s"]
        r_of_s = span["geometry.r_of_s"]
        rows = sum(r.op.rows for r in traced)
        failed_rows = sum(
            not line.endswith(",ok") for r in traced for line in r.text.splitlines()[1:]
        )
        best_ms = [d * 1e3 for d in span["hpspace.best_approx_error"]["durations"]]
        m.update({
            "geometry.r_of_s_calls": metric(r_of_s["calls"], "count"),
            "geometry.r_per_g": metric(r_of_s["calls"] / g["calls"], "ratio"),
            "geometry.mu_of_s_self_s": metric(span["geometry.mu_of_s"]["self_s"], "s"),
            "geometry.knife_geometry_builds_per_v": metric(
                span["geometry.KnifeGeometry"]["calls"] / v["calls"], "ratio"),
            "amplitudes.v_calls": metric(v["calls"], "count"),
            "amplitudes.v_self_s": metric(v["self_s"], "s"),
            "amplitudes.g_calls": metric(g["calls"], "count"),
            "amplitudes.g_self_s": metric(g["self_s"], "s"),
            "amplitudes.h_self_s": metric(span["amplitudes.h_of_s"]["self_s"], "s"),
            "hpspace.v_evals_per_row": metric(v["calls"] / rows, "count/row"),
            "hpspace.l2_project_self_s": metric(span["hpspace.l2_project"]["self_s"], "s"),
            "hpspace.shadow_mesh_s": metric(span["hpspace.shadow_mesh"]["total_s"], "s"),
            "hpspace.best_approx_p50_ms": metric(statistics.median(best_ms), "ms"),
            "hpspace.best_approx_tail_ms": metric(quantile(best_ms, TAIL_PERCENTILE), "ms"),
            "experiments.rows": metric(rows, "count"),
            "experiments.failed_rows": metric(failed_rows, "count"),
            "experiments.serial_wall_s": metric(wall_u, "s"),
            "experiments.pool_efficiency": metric(wall_u / (n_workers * wall_p), "ratio"),
            "experiments.format_csv_s": metric(span["experiments.format_csv"]["total_s"], "s"),
        })
    return {f"{workload}.{k}": val for k, val in m.items()}, results, problems


def traced_run(seed: int, ref: dict, workdir: Path):
    metrics, results, mismatches = {}, [], []
    for workload in workloads.WORKLOADS:
        m, res, extra = traced_workload(workload, seed, ref, workdir)
        metrics.update(m)
        results += res
        mismatches += extra
    problems = [p for r in results for p in r.problems] + mismatches
    # each CSV mismatch across passes is one more failed operation
    failed = sum(not r.ok for r in results) + len(mismatches)
    detail = {"traced_ops": dict(TRACE_OPS), "problems": problems[:20]}
    return metrics, len(results), failed, detail


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shadowhp" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'shadowhp'}", file=sys.stderr)
        return 2
    import shadowhp

    if Path(shadowhp.__file__).resolve().parent != SRC / "shadowhp":
        print(f"perfbench: imported shadowhp from {shadowhp.__file__}, not ./src", file=sys.stderr)
        return 2
    ref = checks.load_reference()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            metrics, attempted, failed, detail = traced_run(args.seed, ref, Path(tmp))
        else:
            metrics, attempted, failed, detail = timed_run(
                args.workload, args.seed, args.seconds, ref, Path(tmp))
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
