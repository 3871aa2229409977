"""The commands other than region: eval, project, experiment and cert.

Each command's arguments, its body and, for experiment, the config parser.
shadowhp.cli imports this module the first time argparse selects one of
these commands, so region, --help and a usage error never compile it.
The exit codes, and the mapping of failed writes onto them, are cli's.

run_grid, write_csv and sector_bound_cert are called as attributes of
shadowhp.cli, looked up at each call: that is where a test or a tracer
replaces them.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from shadowhp import cli
from shadowhp.cli import _print, _rad
from shadowhp.errors import ConfigError
from shadowhp.regions import KnifeGeometry
from shadowhp.runio import MAX_SAMPLES, _fmt, open_output

if TYPE_CHECKING:
    from shadowhp.amplitudes import ShadowConfig

__all__ = ["parse_config"]


def _print_complex(v: complex) -> None:
    _print(f"{_fmt(v.real)},{_fmt(v.imag)}")


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


#: project's options whose defaults are the sweep's, and their ExperimentGrid fields
_GRID_DEFAULTS = {"lnc": "l_nc", "lncp": "l_nc_prime", "sigma": "sigma"}


def _cmd_project(args: argparse.Namespace) -> int:
    from shadowhp.experiments import ExperimentGrid, layers_for_degree
    from shadowhp.hpspace import best_approx_error

    for option, field in _GRID_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, getattr(ExperimentGrid, field))
    cfg = _shadow_config(args)
    n = args.n if args.n is not None else layers_for_degree(args.p, ExperimentGrid.c)
    (res,) = best_approx_error(cfg, [n], args.sigma, [args.p], args.quad_order)
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
    # retired: it changes nothing, and parse_config checks and drops it; it
    # stays while the benchmark's sweep config writes it (ROADMAP item 11)
    "parallelism": int,
    "output": str,
}

_CONFIG_REQUIRED = ("k_values", "alpha_values", "p_values", "output")


def parse_config(text: str, output: str | None = None) -> dict:
    """Parse the flat key=value experiment config; `#` starts a comment.
    Unknown keys, duplicate keys, unparsable values and missing required
    keys all raise ConfigError before any computation starts. An output
    given here (`experiment --output`) replaces the config's, which is then
    not required. The result holds the grid's fields and `output`.
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
    parallelism = values.pop("parallelism", 1)
    if parallelism < 1:
        raise ConfigError(f"parallelism must be an integer >= 1, got {parallelism}")
    return values


def _cmd_experiment(args: argparse.Namespace) -> int:
    from shadowhp.experiments import ExperimentGrid

    try:
        # utf-8-sig: a byte order mark some editors write is not part of a key
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    # ValueError: a NUL byte in the path or (UnicodeDecodeError) a non-UTF-8 file
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    values = parse_config(text, args.output)
    out = values.pop("output")
    grid = ExperimentGrid(**values)
    # every option is checked: opening the output checks its path before any row
    with open_output(out) as fh:
        rows = cli.run_grid(grid)
        cli.write_csv(rows, fh)
    n_failed = sum(1 for r in rows if r.status != "ok")
    # on stderr, so that an output of /dev/stdout carries the CSV alone
    summary = f"wrote {len(rows)} rows to {out}" + (f" ({n_failed} failed)" if n_failed else "")
    _print(summary, stream="stderr")
    return 0


def _cmd_cert(args: argparse.Namespace) -> int:
    cert = cli.sector_bound_cert(args.n_samples)
    _print(
        f"max_observed={_fmt(cert.max_observed)},c_upper={_fmt(cert.c_upper)},"
        f"n_samples={cert.n_samples}"
    )
    return 0


def _eval_arguments(ev: argparse.ArgumentParser) -> None:
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


def _project_arguments(pj: argparse.ArgumentParser) -> None:
    pj.add_argument("--k", type=float, required=True)
    pj.add_argument("--alpha", type=float, required=True)
    pj.add_argument("--p", type=int, required=True)
    # None: the ExperimentGrid default (_GRID_DEFAULTS), filled in when the command runs
    pj.add_argument("--lnc", type=float, default=None)
    pj.add_argument("--lncp", type=float, default=None)
    pj.add_argument("--sigma", type=float, default=None)
    pj.add_argument("--n", type=int, default=None, help="mesh layers (default max(1, p))")
    pj.add_argument("--quad-order", type=int, default=None)
    pj.add_argument("--degrees", action="store_true", help="alpha is given in degrees")
    pj.add_argument(
        "--elements",
        action="store_true",
        help="then print index,a,b,err2,share for each element, in mesh order",
    )
    pj.set_defaults(func=_cmd_project)


def _experiment_arguments(ex: argparse.ArgumentParser) -> None:
    ex.add_argument("config", type=str)
    ex.add_argument("--output", type=str, default=None, help="override the config's output path")
    ex.set_defaults(func=_cmd_experiment)


def _cert_arguments(ct: argparse.ArgumentParser) -> None:
    ct.add_argument(
        "--n-samples", type=int, default=10000, help=f"sample size in [1000, {MAX_SAMPLES}]"
    )
    ct.set_defaults(func=_cmd_cert)


#: the function that adds each command's arguments to its subparser
_ARGUMENTS = {
    "eval": _eval_arguments,
    "project": _project_arguments,
    "experiment": _experiment_arguments,
    "cert": _cert_arguments,
}
