"""The three benchmark workloads as streams of `shadowhp` CLI operations.

An operation is one CLI command, run in-process through
`shadowhp.cli.main`. Each workload draws its inputs from a finite pool
stored in reference.json, in an order fixed by the seed, so every output
can be checked against the reference:

- sweep: `shadowhp experiment` on one wavenumber k (log-spaced over
  4..1024), one angle alpha (from a stratified pool in (pi/2, pi), plus
  alpha = pi) and p = 2..10. The whole stack runs: w, F, r, mu, h, g, V,
  the projection, the process pool and the CSV write.
- cert: `shadowhp cert` at a fixed sample size; kernel and specfun do
  nearly all the work, with w evaluated across the plane. The sample is
  fixed inside sector_bound_cert, so the seed does not change the input.
- region: `shadowhp region --output` on a pool of (R, beta, bounding box)
  with beta on both sides of pi/2; geometry and CLI formatting only, no
  kernel, so it is the control for kernel changes.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("sweep", "cert", "region")


@dataclass(frozen=True)
class Op:
    """One CLI command, how to check its output, and the work it stands for."""

    workload: str
    argv: tuple[str, ...]
    output: Path | None  # None: the command's result goes to stdout
    rows: int  # output records: CSV rows, or the cert summary line
    points: int  # V nodes (sweep), sampled z (cert), labelled s (region)
    key: tuple  # identifies the input within the workload's pool


@dataclass(frozen=True)
class OpResult:
    op: Op
    wall_s: float
    text: str
    bytes_written: int
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def parallelism() -> int:
    return min(2, os.cpu_count() or 1)


def sweep_op(ref: dict, k: float, alpha: float, workdir: Path, n_workers: int) -> Op:
    ps = ref["sweep"]["p_values"]
    cfg = workdir / "sweep.cfg"
    out = workdir / "sweep.csv"
    cfg.write_text(
        f"k_values={checks.fmt(k)}\n"
        f"alpha_values={checks.fmt(alpha)}\n"
        f"p_values={','.join(map(str, ps))}\n"
        f"parallelism={n_workers}\n"
        f"output={out}\n",
        encoding="ascii",
    )
    rows = ref["sweep"]["rows"]
    points = 0
    for p in ps:
        dof = rows[checks.row_key(k, alpha, p)][1]
        # default rule: quad_order = 2p + 16 nodes on each of dof/(p+1) elements
        points += dof // (p + 1) * (2 * p + 16)
    return Op("sweep", ("experiment", str(cfg)), out, len(ps), points, (k, alpha))


def cert_op(ref: dict) -> Op:
    n = ref["cert"]["n_samples"]
    return Op("cert", ("cert", "--n-samples", str(n)), None, 1, n, (n,))


def region_op(ref: dict, index: int, workdir: Path) -> Op:
    c = ref["region"]["configs"][index]
    nx = ny = ref["region"]["n"]
    out = workdir / "region.csv"
    argv = ["region", "--R", checks.fmt(c["R"]), "--beta", checks.fmt(c["beta"])]
    for name in ("re_min", "re_max", "im_min", "im_max"):
        argv += [f"--{name.replace('_', '-')}", checks.fmt(c[name])]
    argv += ["--nx", str(nx), "--ny", str(ny), "--output", str(out)]
    return Op("region", tuple(argv), out, nx * ny, nx * ny, (index,))


def op_stream(workload: str, seed: int, ref: dict, workdir: Path, n_workers: int):
    """Endless seeded sequence of operations: each pass visits the whole
    input pool once, in an order drawn from the seed, so a run of a few
    passes does nearly the same work whatever the seed.
    """
    rng = np.random.default_rng(seed)
    if workload == "cert":
        op = cert_op(ref)
        while True:
            yield op
    if workload == "sweep":
        pool = [(k, a) for k in ref["sweep"]["k_values"] for a in ref["sweep"]["alpha_values"]]
        while True:
            for i in rng.permutation(len(pool)):
                yield sweep_op(ref, *pool[i], workdir, n_workers)
    if workload == "region":
        while True:
            for i in rng.permutation(len(ref["region"]["configs"])):
                yield region_op(ref, int(i), workdir)
    raise ValueError(f"unknown workload {workload!r}")


def check_output(op: Op, text: str, ref: dict) -> list[str]:
    if op.workload == "sweep":
        return checks.check_sweep_csv(text, *op.key, ref)
    if op.workload == "cert":
        return checks.check_cert_output(text, ref)
    return checks.check_region_csv(text, ref["region"]["configs"][op.key[0]])


def run_op(op: Op, ref: dict) -> OpResult:
    """Run one command in-process and check what it produced. A command
    that raises, exits non-zero or writes a wrong result is a failed
    operation; the benchmark carries on.
    """
    import shadowhp.cli

    buf = io.StringIO()
    problems: list[str] = []
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            # looked up on every call, so a traced run sees the wrapper
            code = shadowhp.cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:
        code = None
        problems.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    if code not in (0, None):
        problems.append(f"exit code {code}")
    text = ""
    if not problems:
        text = op.output.read_text(encoding="ascii") if op.output else buf.getvalue()
        problems += check_output(op, text, ref)
    written = len(text.encode("ascii")) if op.output else len(buf.getvalue().encode())
    return OpResult(op, wall, text, written, tuple(problems))
