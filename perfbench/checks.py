"""Reference data and output checks for the benchmark workloads.

`reference.json` holds the finite input pools the workloads draw from and
the outputs the program gave for each input when the reference was made
(see make_reference.py). The checks here compare one operation's output
with that reference and return a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: tolerance on error_l2 and relative_error of a sweep row: a relative part,
#: plus an absolute part scaled by the row's norm of V, so that a drift of
#: ~1e-13 relative in V itself (a different but equally accurate kernel)
#: still passes while any change visible in the leading digits fails
SWEEP_RTOL = 1e-9
SWEEP_ATOL = 1e-12

#: relative tolerance on the sampled maximum of |F| in the cert output
CERT_RTOL = 1e-12

#: relative tolerance of big_f against mpmath at 40 digits
MPMATH_RTOL = 1e-12

#: kept here rather than imported, so that a changed header fails the check
CSV_HEADER = "k,alpha,p,n_layers,dof,error_l2,relative_error,status"


def fmt(x: float) -> str:
    """The program's float format (17 significant digits)."""
    return f"{x:.17g}"


def row_key(k: float, alpha: float, p: int) -> str:
    return f"{fmt(k)},{fmt(alpha)},{p}"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_sweep_csv(text: str, k: float, alpha: float, ref: dict) -> list[str]:
    """Compare the CSV of one `shadowhp experiment` on (k, alpha, every
    degree of the pool) with the reference rows.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs"]
    want_keys = [row_key(k, alpha, p) for p in ref["sweep"]["p_values"]]
    got_keys = [",".join(line.split(",")[:3]) for line in lines[1:]]
    if got_keys != want_keys:
        return [f"CSV rows {got_keys[:3]}... differ from the grid {want_keys[:3]}..."]
    problems = []
    rows = ref["sweep"]["rows"]
    for line, key in zip(lines[1:], want_keys):
        fields = line.split(",")
        if len(fields) != 8:
            problems.append(f"{key}: expected 8 fields, got {len(fields)}")
            continue
        status = fields[7]
        if status != "ok":
            problems.append(f"{key}: status {status!r}")
            continue
        n_layers, dof, err, rel = rows[key]
        if (int(fields[3]), int(fields[4])) != (n_layers, dof):
            problems.append(f"{key}: n_layers/dof {fields[3]}/{fields[4]} != {n_layers}/{dof}")
        norm = err / rel
        for name, got, want, scale in (
            ("error_l2", float(fields[5]), err, norm),
            ("relative_error", float(fields[6]), rel, 1.0),
        ):
            if not abs(got - want) <= SWEEP_RTOL * abs(want) + SWEEP_ATOL * scale:
                problems.append(f"{key}: {name} {got!r} != reference {want!r}")
    return problems


def check_cert_output(text: str, ref: dict) -> list[str]:
    """Compare the one-line `shadowhp cert` output with the reference."""
    try:
        fields = dict(item.split("=", 1) for item in text.strip().split(","))
        max_observed = float(fields["max_observed"])
        n_samples = int(fields["n_samples"])
    except (KeyError, ValueError) as exc:
        return [f"unparsable cert output {text!r}: {exc}"]
    want = ref["cert"]
    problems = []
    if n_samples != want["n_samples"]:
        problems.append(f"n_samples {n_samples} != {want['n_samples']}")
    if not math.isclose(max_observed, want["max_observed"], rel_tol=CERT_RTOL, abs_tol=0.0):
        problems.append(f"max_observed {max_observed!r} != {want['max_observed']!r}")
    return problems


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def check_region_csv(text: str, config: dict) -> list[str]:
    """The label cloud must equal the reference byte for byte."""
    if sha256_text(text) == config["sha256"]:
        return []
    return [f"region output differs from the reference for R={config['R']!r} beta={config['beta']!r}"]


def check_big_f_mpmath(points: list[complex]) -> list[str]:
    """big_f against F(z) = e^{-iz^2} Fr(z), Fr(z) = erfc(e^{-i pi/4} z) / 2,
    evaluated by mpmath at 40 digits.
    """
    import mpmath

    from shadowhp.specfun import big_f

    problems = []
    with mpmath.workdps(40):
        rot = mpmath.exp(-0.25j * mpmath.pi)
        for z in points:
            zm = mpmath.mpc(z)
            want = complex(mpmath.exp(-1j * zm * zm) * mpmath.erfc(rot * zm) / 2)
            got = big_f(z)
            if not abs(got - want) <= MPMATH_RTOL * abs(want):
                problems.append(f"big_f({z!r}) = {got!r}, mpmath gives {want!r}")
    return problems
