"""Command-line front end.

Subcommands: eval (point values), region (membership point cloud), project
(one best-approximation run), experiment (full sweep from a config file),
cert (sector bound certification). Exit codes: 0 success, 1 domain error,
2 configuration error, 3 certification failure, 141 (128 + SIGPIPE) when
the reader of an output closed it early. The error's type picks the
code: each range rule raises ConfigError (a run option or config value,
exit 2) or DomainError (a model value, exit 1) where it lives, and the
commands restate none of them. Every write to an output, to standard
output or to standard error goes through runio, argparse's help, usage
and error text included, so a failed one raises WriteError naming it:
exit 141 where its reader closed early, else 2, or the code of the error
whose report failed. Any other OSError is a bug and propagates.

Loading this module imports neither numpy nor dataclasses: region, --help
and a usage error run on the standard library and the numpy-free modules
regions and runio.
The other commands import their layers when they run, and run_grid,
write_csv and sector_bound_cert here load theirs at their first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, TextIO

from shadowhp.errors import CertificationError, ConfigError, DomainError
from shadowhp.regions import _LABELS, KnifeGeometry, region_label
from shadowhp.runio import MAX_SAMPLES, STDERR, STDOUT, WriteError, _fmt, _StdText, open_output

if TYPE_CHECKING:
    from shadowhp.amplitudes import ShadowConfig
    from shadowhp.experiments import ExperimentGrid, GridRow
    from shadowhp.specfun import SectorBoundCert

__all__ = ["main"]


def run_grid(grid: ExperimentGrid, parallelism: int = 1) -> list[GridRow]:
    """experiments.run_grid, imported at the first call."""
    from shadowhp import experiments

    return experiments.run_grid(grid, parallelism)


def write_csv(rows: list[GridRow], out: TextIO) -> None:
    """experiments.write_csv, imported at the first call."""
    from shadowhp import experiments

    experiments.write_csv(rows, out)


def sector_bound_cert(n_samples: int) -> SectorBoundCert:
    """specfun.sector_bound_cert, imported at the first call."""
    from shadowhp import specfun

    return specfun.sector_bound_cert(n_samples)


def _print(*lines: str, stream: str = "stdout") -> None:
    """Write lines to standard output (or error) and flush it, so that a
    failed write raises WriteError here and leaves nothing for the flush at
    exit."""
    with _StdText(stream) as out:
        out.write("".join(f"{line}\n" for line in lines))


def _print_complex(v: complex) -> None:
    _print(f"{_fmt(v.real)},{_fmt(v.imag)}")


def _rad(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _shadow_config(args: argparse.Namespace) -> ShadowConfig:
    from shadowhp.amplitudes import ShadowConfig

    return ShadowConfig(
        k=args.k, alpha=_rad(args.alpha, args.degrees), l_nc=args.lnc, l_nc_prime=args.lncp
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    from shadowhp.amplitudes import FieldPoint, amplitude_v, e_field, g_of_s, h_of_s, psi_go
    from shadowhp.specfun import big_f, fresnel_fr

    fn = args.function
    if fn in ("fr", "F"):
        z = complex(args.re, args.im)
        _print_complex(fresnel_fr(z) if fn == "fr" else big_f(z))
        return 0
    deg = args.degrees
    if fn == "E":
        p = FieldPoint(r=args.r, psi=_rad(args.psi, deg))
        _print_complex(e_field(p, args.k))
    elif fn in ("g", "h"):
        if len(args.s) > 2:
            raise ConfigError(f"--s takes RE [IM], got {len(args.s)} values")
        geo = KnifeGeometry(R=args.R, beta=_rad(args.beta, deg))
        s = complex(*args.s)
        f = g_of_s if fn == "g" else h_of_s
        _print_complex(f(s, geo, args.k))
    else:
        f = amplitude_v if fn == "V" else psi_go
        _print_complex(f(args.s, _shadow_config(args)))
    return 0


#: each region label's four flags as the end of a CSV line, in the
#: header's column order in_cut, in_R, in_ellipse, in_S
_FLAG_TEXT = {lab: ",".join(str(int(f)) for f in lab) + "\n" for lab in _LABELS}


def _axis(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]


def _cmd_region(args: argparse.Namespace) -> int:
    if args.nx < 1 or args.ny < 1 or args.nx * args.ny > 4096 * 4096:
        raise ConfigError(f"resolution {args.nx}x{args.ny} outside [1, 4096^2]")
    box = (args.re_min, args.re_max, args.im_min, args.im_max)
    if not all(math.isfinite(x) for x in box):
        raise ConfigError(f"bounding box {box} has a bound that is not finite")
    if not (args.re_max > args.re_min and args.im_max > args.im_min):
        raise ConfigError(f"bounding box {box} is empty")
    res = _axis(args.re_min, args.re_max, args.nx)
    ims = _axis(args.im_min, args.im_max, args.ny)
    if not all(math.isfinite(x) for x in res + ims):
        raise ConfigError(f"bounding box {box}: a span overflows the double range")
    geo = KnifeGeometry(R=args.R, beta=_rad(args.beta, args.degrees))
    # each coordinate is formatted once and region_label is called once per
    # point; every input is checked above, so the rows can be written as
    # they are labelled and only one row's text is held at a time
    columns = [(re, _fmt(re)) for re in res]
    with open_output(args.output) as out:
        out.write("re,im,in_cut,in_R,in_ellipse,in_S\n")
        for im in ims:
            im_text = "," + _fmt(im) + ","
            line = []
            for re, re_text in columns:
                lab = region_label(complex(re, im), geo)
                line.append(re_text + im_text + _FLAG_TEXT[lab])
            out.write("".join(line))
    return 0


#: project's options whose defaults are the sweep's, and their ExperimentGrid fields
_GRID_DEFAULTS = {"lnc": "l_nc", "lncp": "l_nc_prime", "sigma": "sigma", "c": "c"}


def _cmd_project(args: argparse.Namespace) -> int:
    from shadowhp.experiments import ExperimentGrid, layers_for_degree
    from shadowhp.hpspace import best_approx_error

    for option, field in _GRID_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, getattr(ExperimentGrid, field))
    cfg = _shadow_config(args)
    n = args.n if args.n is not None else layers_for_degree(args.p, args.c)
    res = best_approx_error(cfg, n, args.sigma, args.p, args.quad_order)
    lines = [f"{_fmt(res.error_l2)},{_fmt(res.relative_error)},{res.dof}"]
    if args.elements:
        for i, ((a, b), err2, share) in enumerate(
            zip(res.space.mesh.elements(), res.element_err2, res.element_shares)
        ):
            lines.append(f"{i},{_fmt(a)},{_fmt(b)},{_fmt(err2)},{_fmt(share)}")
    _print(*lines)
    return 0


_CONFIG_SCHEMA = {
    "k_values": lambda v: tuple(float(x) for x in v.split(",")),
    "alpha_values": lambda v: tuple(float(x) for x in v.split(",")),
    "p_values": lambda v: tuple(int(x) for x in v.split(",")),
    "l_nc": float,
    "l_nc_prime": float,
    "sigma": float,
    "c": float,
    "quad_order": int,
    "parallelism": int,
    "output": str,
}

_CONFIG_REQUIRED = ("k_values", "alpha_values", "p_values", "output")


def parse_config(text: str, output: str | None = None) -> dict:
    """Parse the flat key=value experiment config; `#` starts a comment.
    Unknown keys, duplicate keys, unparsable values and missing required
    keys all raise ConfigError before any computation starts. An output
    given here (`experiment --output`) replaces the config's, which is then
    not required.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_SCHEMA[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if output is not None:
        values["output"] = output
    missing = [k for k in _CONFIG_REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return values


def _cmd_experiment(args: argparse.Namespace) -> int:
    from shadowhp.experiments import ExperimentGrid, check_parallelism

    try:
        # utf-8-sig: a byte order mark some editors write is not part of a key
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    # ValueError: a NUL byte in the path or (UnicodeDecodeError) a non-UTF-8 file
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    values = parse_config(text, args.output)
    out = values.pop("output")
    parallelism = values.pop("parallelism", 1)
    grid = ExperimentGrid(**values)
    check_parallelism(parallelism)
    # every option is checked: opening the output checks its path before any row
    with open_output(out) as fh:
        rows = run_grid(grid, parallelism=parallelism)
        write_csv(rows, fh)
    n_failed = sum(1 for r in rows if r.status != "ok")
    # on stderr, so that an output of /dev/stdout carries the CSV alone
    summary = f"wrote {len(rows)} rows to {out}" + (f" ({n_failed} failed)" if n_failed else "")
    _print(summary, stream="stderr")
    return 0


def _cmd_cert(args: argparse.Namespace) -> int:
    cert = sector_bound_cert(args.n_samples)
    _print(
        f"max_observed={_fmt(cert.max_observed)},c_upper={_fmt(cert.c_upper)},"
        f"n_samples={cert.n_samples}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and, as their class, its subparsers) that writes
    its help, usage and error text for the standard streams through runio:
    a failed write raises WriteError, where argparse's own _print_message
    drops it. argparse passes sys.stdout for the help and sys.stderr (or
    None) for the rest; any other file is written as argparse writes it."""

    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        if file is not None and file is not sys.stdout and file is not sys.stderr:
            super()._print_message(message, file)
        elif message:
            with _StdText("stdout" if file is sys.stdout else "stderr") as out:
                out.write(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` returns
    a fresh Namespace and leaves the parser as it was.
    """
    parser = _Parser(
        prog="shadowhp",
        description="Shadow-boundary amplitudes, analyticity regions and hp best approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a single function at a point")
    ev_sub = ev.add_subparsers(dest="function", required=True)
    for name, doc in (("fr", "Fresnel integral Fr(z)"), ("F", "bounded companion F(z)")):
        q = ev_sub.add_parser(name, help=doc)
        q.add_argument("re", type=float)
        q.add_argument("im", type=float, nargs="?", default=0.0)
        q.set_defaults(func=_cmd_eval)
    q = ev_sub.add_parser("E", help="knife-edge field E(r, psi)")
    q.add_argument("--r", type=float, required=True)
    q.add_argument("--psi", type=float, required=True)
    q.add_argument("--k", type=float, required=True)
    q.add_argument("--degrees", action="store_true", help="psi is given in degrees")
    q.set_defaults(func=_cmd_eval)
    for name, doc in (("g", "amplitude g(s; R, beta)"), ("h", "amplitude h(s; R, beta)")):
        q = ev_sub.add_parser(name, help=doc)
        q.add_argument("--s", type=float, nargs="+", required=True, metavar="RE [IM]")
        q.add_argument("--R", type=float, required=True)
        q.add_argument("--beta", type=float, required=True)
        q.add_argument("--k", type=float, required=True)
        q.add_argument("--degrees", action="store_true", help="beta is given in degrees")
        q.set_defaults(func=_cmd_eval)
    for name, doc in (
        ("V", "shadow-boundary amplitude V(s)"),
        ("psi_go", "geometrical-optics trace Psi_GO(s)"),
    ):
        q = ev_sub.add_parser(name, help=doc)
        q.add_argument("--s", type=float, required=True)
        q.add_argument("--k", type=float, required=True)
        q.add_argument("--alpha", type=float, required=True)
        q.add_argument("--lnc", type=float, required=True)
        q.add_argument("--lncp", type=float, required=True)
        q.add_argument("--degrees", action="store_true", help="alpha is given in degrees")
        q.set_defaults(func=_cmd_eval)

    rg = sub.add_parser("region", help="emit a CSV point cloud of region labels")
    rg.add_argument("--R", type=float, required=True)
    rg.add_argument("--beta", type=float, required=True)
    rg.add_argument("--re-min", type=float, default=-2.0)
    rg.add_argument("--re-max", type=float, default=2.0)
    rg.add_argument("--im-min", type=float, default=-2.0)
    rg.add_argument("--im-max", type=float, default=2.0)
    rg.add_argument("--nx", type=int, default=64)
    rg.add_argument("--ny", type=int, default=64)
    rg.add_argument("--output", type=str, default=None)
    rg.add_argument("--degrees", action="store_true", help="beta is given in degrees")
    rg.set_defaults(func=_cmd_region)

    pj = sub.add_parser("project", help="one best-approximation run")
    pj.add_argument("--k", type=float, required=True)
    pj.add_argument("--alpha", type=float, required=True)
    pj.add_argument("--p", type=int, required=True)
    # None: the ExperimentGrid default (_GRID_DEFAULTS), filled in when the command runs
    pj.add_argument("--lnc", type=float, default=None)
    pj.add_argument("--lncp", type=float, default=None)
    pj.add_argument("--sigma", type=float, default=None)
    depth = pj.add_mutually_exclusive_group()
    depth.add_argument("--c", type=float, default=None)
    depth.add_argument("--n", type=int, default=None, help="override n = max(1, ceil(c p))")
    pj.add_argument("--quad-order", type=int, default=None)
    pj.add_argument("--degrees", action="store_true", help="alpha is given in degrees")
    pj.add_argument(
        "--elements",
        action="store_true",
        help="then print index,a,b,err2,share for each element, in mesh order",
    )
    pj.set_defaults(func=_cmd_project)

    ex = sub.add_parser("experiment", help="run a sweep from a key=value config file")
    ex.add_argument("config", type=str)
    ex.add_argument("--output", type=str, default=None, help="override the config's output path")
    ex.set_defaults(func=_cmd_experiment)

    ct = sub.add_parser("cert", help="certify the sector bound of F by sampling")
    ct.add_argument(
        "--n-samples", type=int, default=10000, help=f"sample size in [1000, {MAX_SAMPLES}]"
    )
    ct.set_defaults(func=_cmd_cert)

    # argparse (before Python 3.13) reads -1 and -1.5 as values but -1e-3 as
    # an option; every parser here reads any negative float literal as a value
    negative_number = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    for p in (parser, *sub.choices.values(), *ev_sub.choices.values()):
        p._negative_number_matcher = negative_number
    return parser


#: the standard stream a failed write names, by WriteError.path
_STREAMS = {STDOUT: "stdout", STDERR: "stderr"}


def _detach(exc: WriteError) -> None:
    # the interpreter flushes stdout and stderr at exit: what a failed write
    # left in the stream's buffer goes to os.devnull, not to a second error
    name = _STREAMS.get(exc.path)
    if name is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, getattr(sys, name).fileno())
        os.close(devnull)


def _report(message: str, code: int) -> int:
    """Print message to standard error and return code; where that write
    fails, 141 if its reader closed early and code otherwise."""
    try:
        _print(message, stream="stderr")
    except WriteError as exc:
        _detach(exc)
        return 141 if exc.reader_closed else code
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # --help and a usage error end in SystemExit, unless their write fails
        args = build_parser().parse_args(argv)
        return args.func(args)
    except WriteError as exc:
        _detach(exc)
        if exc.reader_closed:
            return 141
        return _report(f"config error: {exc}", 2)
    except ConfigError as exc:
        return _report(f"config error: {exc}", 2)
    except CertificationError as exc:
        return _report(f"certification failure: {exc}", 3)
    except (DomainError, OverflowError) as exc:
        return _report(f"domain error: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
