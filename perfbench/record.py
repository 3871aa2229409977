"""Run the benchmark on several seeds and record the figures as a baseline.

Run from the repository root:

    python3 perfbench/record.py --runs 10 --output perfbench/baseline.json

For each workload, runs `run.py --trace 0` once per seed and keeps every
end-to-end value with its median, quartiles and spread (the distance
between the quartiles as a share of the median). Then runs the traced
pass twice on the first seed and keeps its per-layer values, after
checking that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: units of the per-layer values that must repeat exactly between traced runs
COUNT_UNITS = ("count", "bytes", "count/row")
EXACT_RATIOS = ("r_per_g", "knife_geometry_builds_per_v")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed: {proc.stderr.strip()}")
    prov = json.loads(next(x for x in lines if x.startswith("provenance "))[len("provenance "):])
    detail = json.loads(next(x for x in lines if x.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), prov, detail


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--output", type=Path, required=True)
    args = ap.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"seeds": seeds, "run_seconds": SPEC["run_seconds"], "end_to_end": {}}
    for w in SPEC["workloads"]:
        values: dict[str, list[float]] = {}
        details = []
        for seed in seeds:
            result, prov, detail = bench(w["name"], seed, 0)
            details.append({"seed": seed, "timed_ops": detail["timed_ops"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w["name"], seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        out["end_to_end"][w["name"]] = {
            "metrics": {name: summarize(v) for name, v in values.items()},
            "runs": details,
        }
    out["provenance"] = {k: v for k, v in prov.items() if k not in ("workload", "seed", "trace")}
    traced = [bench(SPEC["workloads"][0]["name"], seeds[0], 1)[0]["metrics"] for _ in range(2)]
    for name, m in traced[0].items():
        exact = m["unit"] in COUNT_UNITS or name.endswith(EXACT_RATIOS)
        if exact and m["value"] != traced[1][name]["value"]:
            raise SystemExit(f"count {name} differs between traced runs: "
                             f"{m['value']} != {traced[1][name]['value']}")
    out["per_layer"] = {"seed": seeds[0], "runs": [
        {name: m["value"] for name, m in t.items()} for t in traced]}
    args.output.write_text(json.dumps(out, indent=1) + "\n")
    for wname, data in out["end_to_end"].items():
        for name, s in data["metrics"].items():
            print(f"{wname:7s} {name:14s} median {s['median']:.6g} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
