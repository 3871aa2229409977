"""Regenerate perfbench/reference.json: the workloads' input pools and the
outputs the program gives on them.

Run from the repository root:  python3 perfbench/make_reference.py

The reference is a record of the program at the commit that made it; the
benchmark then checks every later commit against it. Regenerate it only
when a change to the program's results is intended, and say so.
"""

from __future__ import annotations

import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from shadowhp.cli import main  # noqa: E402
from shadowhp.experiments import ExperimentGrid, run_grid  # noqa: E402

#: k log-spaced over 4..1024
K_VALUES = [4.0, 16.0, 64.0, 256.0, 1024.0]
#: one angle from each of 16 equal strata of (pi/2, pi), at the stratum
#: midpoint, plus alpha = pi
ALPHA_VALUES = [0.5 * math.pi + math.pi * (2 * j + 1) / 64.0 for j in range(16)] + [math.pi]
P_VALUES = list(range(2, 11))
CERT_SAMPLES = 10000
REGION_N = 100
REGION_CONFIGS = 16
#: fixes the region pool; the benchmark seed only orders it
POOL_SEED = 1409


def sweep_reference() -> dict:
    grid = ExperimentGrid(
        k_values=tuple(K_VALUES),
        alpha_values=tuple(ALPHA_VALUES),
        p_values=tuple(P_VALUES),
    )
    rows = {}
    for r in run_grid(grid, parallelism=workloads.parallelism()):
        if r.status != "ok":
            raise SystemExit(f"reference row failed: {r}")
        rows[checks.row_key(r.k, r.alpha, r.p)] = [r.n_layers, r.dof, r.error_l2, r.relative_error]
    return {
        "k_values": K_VALUES,
        "alpha_values": ALPHA_VALUES,
        "p_values": P_VALUES,
        "rows": rows,
    }


def cert_reference() -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["cert", "--n-samples", str(CERT_SAMPLES)])
    if code != 0:
        raise SystemExit(f"cert exited {code}")
    fields = dict(item.split("=", 1) for item in buf.getvalue().strip().split(","))
    return {"n_samples": int(fields["n_samples"]), "max_observed": float(fields["max_observed"])}


def region_reference(workdir: Path) -> dict:
    rng = np.random.default_rng(POOL_SEED)
    configs = []
    for i in range(REGION_CONFIGS):
        R = float(rng.uniform(0.5, 2.0))
        # alternate sides of pi/2: the region predicate branches on it
        if i % 2 == 0:
            beta = float(rng.uniform(0.35, 0.5 * math.pi - 0.15))
        else:
            beta = float(rng.uniform(0.5 * math.pi + 0.15, math.pi - 0.35))
        centre = R * math.cos(beta)
        half_w = float(rng.uniform(1.0, 2.5)) * R
        half_h = float(rng.uniform(1.0, 2.5)) * R
        configs.append({
            "R": R,
            "beta": beta,
            "re_min": centre - half_w,
            "re_max": centre + half_w,
            "im_min": -half_h * float(rng.uniform(0.5, 1.0)),
            "im_max": half_h,
        })
    ref = {"n": REGION_N, "configs": configs}
    for i, c in enumerate(configs):
        op = workloads.region_op({"region": ref}, i, workdir)
        with redirect_stdout(io.StringIO()):
            code = main(list(op.argv))
        if code != 0:
            raise SystemExit(f"region {c} exited {code}")
        c["sha256"] = checks.sha256_text(op.output.read_text(encoding="ascii"))
    return ref


def write_reference() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench-") as tmp:
        ref = {
            "sweep": sweep_reference(),
            "cert": cert_reference(),
            "region": region_reference(Path(tmp)),
        }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}: {len(ref['sweep']['rows'])} sweep rows")


if __name__ == "__main__":
    write_reference()
