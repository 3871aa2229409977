"""Command-line front end: the dispatcher, the exit codes and the region
command.

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

The parser names every subcommand; a subcommand's parser is made, with its
arguments, the first time argparse selects it. region's arguments are
defined here; eval, project, experiment and cert live in shadowhp.commands,
imported when one of them is first selected. So region, --help and a usage
error compile and build only what they run, on the standard library and
the numpy-free modules regions and runio. The other commands import their
layers when they run, and run_grid, write_csv and sector_bound_cert here
load theirs at their first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import threading
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, TextIO

from shadowhp.errors import CertificationError, ConfigError, DomainError
from shadowhp.regions import _LABELS, KnifeGeometry, region_label
from shadowhp.runio import STDERR, STDOUT, WriteError, _fmt, _StdText, open_output

if TYPE_CHECKING:
    from shadowhp.experiments import ExperimentGrid, GridRow
    from shadowhp.specfun import SectorBoundCert

__all__ = ["main"]


def run_grid(grid: ExperimentGrid) -> list[GridRow]:
    """experiments.run_grid, imported at the first call."""
    from shadowhp import experiments

    return experiments.run_grid(grid)


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


def _rad(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


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


#: argparse (before Python 3.13) reads -1 and -1.5 as values but -1e-3 as
#: an option; every parser here reads any negative float literal as a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and, as their class, its subparsers) that reads a
    negative number with an exponent as a value and writes its help, usage
    and error text for the standard streams through runio: a failed write
    raises WriteError, where argparse's own _print_message drops it.
    argparse passes sys.stdout for the help and sys.stderr (or None) for
    the rest; any other file is written as argparse writes it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        if file is not None and file is not sys.stdout and file is not sys.stderr:
            super()._print_message(message, file)
        elif message:
            with _StdText("stdout" if file is sys.stdout else "stderr") as out:
                out.write(message)


class _Subcommands(argparse._SubParsersAction):
    """argparse's subparsers action, except that each subparser is made,
    and given its arguments, when argparse first selects it: add_parser
    takes the function that adds them."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()

    def add_parser(
        self, name: str, *, fill: Callable[[argparse.ArgumentParser], None], help: str
    ) -> None:
        # the name and help line that the usage and --help show; choices
        # maps the name to its fill until the subparser is made
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self.choices[name] = fill

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        # argparse has checked the name; a parse in another thread waits
        # here until the subparser is made
        name = values[0]
        with self._lock:
            fill = self.choices[name]
            if not isinstance(fill, argparse.ArgumentParser):
                subparser = self._parser_class(prog=f"{self._prog_prefix} {name}")
                fill(subparser)
                self.choices[name] = subparser
        super().__call__(parser, namespace, values, option_string)


def _region_arguments(rg: argparse.ArgumentParser) -> None:
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


def _commands_arguments(name: str, parser: argparse.ArgumentParser) -> None:
    """Add the arguments of a command that shadowhp.commands defines."""
    from shadowhp import commands

    commands._ARGUMENTS[name](parser)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. It names every
    subcommand with its help line; each subcommand's parser is made, with
    its arguments, the first time a parse selects it. So a parse may add to
    the parser, but `parse_args` returns a fresh Namespace and leaves no
    value behind.
    """
    parser = _Parser(
        prog="shadowhp",
        description="Shadow-boundary amplitudes, analyticity regions and hp best approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    for name, help_line in (
        ("eval", "evaluate a single function at a point"),
        ("region", "emit a CSV point cloud of region labels"),
        ("project", "one best-approximation run"),
        ("experiment", "run a sweep from a key=value config file"),
        ("cert", "certify the sector bound of F by sampling"),
    ):
        if name == "region":
            fill = _region_arguments
        else:
            fill = functools.partial(_commands_arguments, name)
        sub.add_parser(name, fill=fill, help=help_line)
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
