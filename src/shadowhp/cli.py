"""Command-line front end.

Subcommands: eval (point values), region (membership point cloud), project
(one best-approximation run), experiment (full sweep from a config file),
cert (sector bound certification). Exit codes: 0 success, 1 domain error,
2 configuration error, 3 certification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Sequence

from shadowhp.amplitudes import (
    FieldPoint,
    ShadowConfig,
    amplitude_v,
    e_field,
    g_of_s,
    h_of_s,
    psi_go,
)
from shadowhp.errors import CertificationError, ConfigError, DomainError
from shadowhp.experiments import (
    ExperimentGrid,
    _fmt,
    layers_for_degree,
    run_grid,
    write_csv,
)
from shadowhp.geometry import KnifeGeometry, region_label
from shadowhp.hpspace import best_approx_error, gauss_legendre_rule
from shadowhp.specfun import big_f, fresnel_fr, sector_bound_cert

__all__ = ["main"]


def _print_complex(v: complex) -> None:
    print(f"{_fmt(v.real)},{_fmt(v.imag)}")


def _rad(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _cmd_eval(args: argparse.Namespace) -> int:
    deg = args.degrees
    fn = args.function
    if fn in ("fr", "F"):
        z = complex(args.re, args.im)
        _print_complex(fresnel_fr(z) if fn == "fr" else big_f(z))
    elif fn == "E":
        p = FieldPoint(r=args.r, psi=_rad(args.psi, deg))
        _print_complex(e_field(p, args.k))
    elif fn in ("g", "h"):
        geo = KnifeGeometry(R=args.R, beta=_rad(args.beta, deg))
        s = complex(args.s[0], args.s[1] if len(args.s) > 1 else 0.0)
        f = g_of_s if fn == "g" else h_of_s
        _print_complex(f(s, geo, args.k))
    else:
        cfg = ShadowConfig(
            k=args.k, alpha=_rad(args.alpha, deg), l_nc=args.lnc, l_nc_prime=args.lncp
        )
        f = amplitude_v if fn == "V" else psi_go
        _print_complex(f(args.s, cfg))
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    if args.nx < 1 or args.ny < 1 or args.nx * args.ny > 4096 * 4096:
        raise ConfigError(f"resolution {args.nx}x{args.ny} outside [1, 4096^2]")
    if not (args.re_max > args.re_min and args.im_max > args.im_min):
        raise ConfigError("empty bounding box")
    geo = KnifeGeometry(R=args.R, beta=_rad(args.beta, args.degrees))
    lines = ["re,im,in_cut,in_R,in_ellipse,in_S"]
    for j in range(args.ny):
        im = args.im_min + (args.im_max - args.im_min) * j / max(args.ny - 1, 1)
        for i in range(args.nx):
            re = args.re_min + (args.re_max - args.re_min) * i / max(args.nx - 1, 1)
            lab = region_label(complex(re, im), geo)
            lines.append(
                f"{_fmt(re)},{_fmt(im)},{int(lab.in_cut_plane)},{int(lab.in_R)},"
                f"{int(lab.in_ellipse)},{int(lab.in_S)}"
            )
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    if args.quad_order is not None:
        try:
            gauss_legendre_rule(args.quad_order)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    cfg = ShadowConfig(
        k=args.k, alpha=_rad(args.alpha, args.degrees), l_nc=args.lnc, l_nc_prime=args.lncp
    )
    n = args.n if args.n is not None else layers_for_degree(args.p, args.c)
    res = best_approx_error(cfg, n, args.sigma, args.p, args.quad_order)
    print(f"{_fmt(res.error_l2)},{_fmt(res.relative_error)},{res.dof}")
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


def parse_config(text: str) -> dict:
    """Parse the flat key=value experiment config; `#` starts a comment.
    Unknown keys, duplicate keys, unparsable values and missing required
    keys all raise ConfigError before any computation starts.
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
    missing = [k for k in _CONFIG_REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return values


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    values = parse_config(text)
    output = values.pop("output")
    quad_order = values.pop("quad_order", None)
    parallelism = values.pop("parallelism", 1)
    # rows keep their own DomainErrors: one that escapes names a bad value or option
    try:
        rows = run_grid(ExperimentGrid(**values), quad_order=quad_order, parallelism=parallelism)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    out = args.output if args.output is not None else output
    write_csv(rows, out)
    n_failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {out}" + (f" ({n_failed} failed)" if n_failed else ""))
    return 0


def _cmd_cert(args: argparse.Namespace) -> int:
    cert = sector_bound_cert(args.n_samples)
    print(
        f"max_observed={_fmt(cert.max_observed)},c_upper={_fmt(cert.c_upper)},"
        f"n_samples={cert.n_samples}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` returns
    a fresh Namespace and leaves the parser as it was.
    """
    parser = argparse.ArgumentParser(
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
        q.add_argument("--degrees", action="store_true")
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
    pj.add_argument("--lnc", type=float, default=ExperimentGrid.l_nc)
    pj.add_argument("--lncp", type=float, default=ExperimentGrid.l_nc_prime)
    pj.add_argument("--sigma", type=float, default=ExperimentGrid.sigma)
    pj.add_argument("--c", type=float, default=ExperimentGrid.c)
    pj.add_argument("--n", type=int, default=None, help="override n = max(1, ceil(c p))")
    pj.add_argument("--quad-order", type=int, default=None)
    pj.add_argument("--degrees", action="store_true", help="alpha is given in degrees")
    pj.set_defaults(func=_cmd_project)

    ex = sub.add_parser("experiment", help="run a sweep from a key=value config file")
    ex.add_argument("config", type=str)
    ex.add_argument("--output", type=str, default=None, help="override the config's output path")
    ex.set_defaults(func=_cmd_experiment)

    ct = sub.add_parser("cert", help="certify the sector bound of F by sampling")
    ct.add_argument("--n-samples", type=int, default=10000)
    ct.set_defaults(func=_cmd_cert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
