"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = checks.load_reference()


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        yield Path(tmp)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_names_match_spec(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_per_layer_names_match_spec():
    proc = bench("--workload", "cert", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_without_program_source_exits_nonzero_and_prints_no_result():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "region", "--seed", "1", "--seconds", "1", cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def reference_csv(k: float, alpha: float) -> str:
    lines = [checks.CSV_HEADER]
    for p in REF["sweep"]["p_values"]:
        n, dof, err, rel = REF["sweep"]["rows"][checks.row_key(k, alpha, p)]
        lines.append(f"{checks.row_key(k, alpha, p)},{n},{dof},{checks.fmt(err)},{checks.fmt(rel)},ok")
    return "\n".join(lines) + "\n"


def test_sweep_check_accepts_reference_and_rejects_perturbed_value():
    k, alpha = REF["sweep"]["k_values"][2], REF["sweep"]["alpha_values"][5]
    text = reference_csv(k, alpha)
    assert checks.check_sweep_csv(text, k, alpha, REF) == []
    lines = text.split("\n")
    fields = lines[1].split(",")
    fields[5] = checks.fmt(float(fields[5]) * (1.0 + 1e-6))
    lines[1] = ",".join(fields)
    assert checks.check_sweep_csv("\n".join(lines), k, alpha, REF)
    failed = text.replace(",ok\n", ",failed: OverflowError\n", 1)
    assert checks.check_sweep_csv(failed, k, alpha, REF)
    assert checks.check_sweep_csv(text.replace(lines[2] + "\n", ""), k, alpha, REF)


def test_region_check_rejects_flipped_label(workdir):
    result = workloads.run_op(workloads.region_op(REF, 3, workdir), REF)
    assert result.ok, result.problems
    lines = result.text.split("\n")
    row = lines[len(lines) // 2].split(",")
    row[3] = "1" if row[3] == "0" else "0"
    lines[len(lines) // 2] = ",".join(row)
    assert checks.check_region_csv("\n".join(lines), REF["region"]["configs"][3])


def test_cert_check_rejects_wrong_maximum():
    want = REF["cert"]
    good = f"max_observed={checks.fmt(want['max_observed'])},c_upper=1.59,n_samples={want['n_samples']}\n"
    assert checks.check_cert_output(good, REF) == []
    bad = good.replace(checks.fmt(want["max_observed"]), checks.fmt(want["max_observed"] * (1 + 1e-9)))
    assert checks.check_cert_output(bad, REF)


def test_wrappers_removed_after_tracing(workdir):
    def current():
        return [getattr(importlib.import_module(m), a) for m, a, _ in tracer.TARGETS]

    originals = current()
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced(tr):
            assert all(f is not o for f, o in zip(current(), originals))
            assert workloads.run_op(workloads.region_op(REF, 0, workdir), REF).ok
            raise RuntimeError("leave the block early")
    assert all(f is o for f, o in zip(current(), originals))
    assert tr.summary()["geometry.region_label"]["calls"] == REF["region"]["n"] ** 2


def test_traced_counts_repeat_exactly(workdir):
    counts = []
    for _ in range(2):
        metrics, results, mismatches = run.traced_workload("cert", 3, REF, workdir)
        assert all(r.ok for r in results) and not mismatches
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["cert.kernel.w_calls"] > 0
