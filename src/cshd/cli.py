"""Command-line interface: approx, sweep, limit-study, reproduce.

Exit codes: 0 success, 2 input error, 3 error bound inapplicable (W = S .* S
rank deficient), 4 reproduction tolerance failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments, registry
from .exceptions import BoundInapplicableError, ParameterError, StencilError
from .report import FORMATS
from .sets import SampleDirections, SetKind, load_directions

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BOUND_INAPPLICABLE = 3
EXIT_REPRODUCTION_FAILED = 4

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _parse_point(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"point must be comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ParameterError("point must contain at least one coordinate")
    return np.array(values)


def _parse_set(text: str) -> SetKind | SampleDirections:
    """A named set's kind, or the directions loaded for ``custom:PATH``."""
    low = text.strip().lower()
    if low.startswith("custom:"):
        path = text.strip()[len("custom:"):]
        if not path:
            raise ParameterError("custom set needs a path: --set custom:PATH")
        return load_directions(path)
    try:
        return SetKind(low)
    except ValueError:
        raise ParameterError(
            f"unknown set {text!r}; expected cb, rb, cmpb, rmpb or custom:PATH"
        ) from None


def _config_relative_set(value: str, config_dir: Path) -> str:
    """A stripped ``set`` value from a config file: a relative ``custom:PATH``
    is taken from the config file's directory, not from the cwd."""
    prefix, path = value[:len("custom:")], value[len("custom:"):]
    if prefix.lower() != "custom:" or not path:
        return value
    return prefix + str(config_dir / path)


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The config file's ``key = value`` lines as the flags they name: blank
    lines and # comments are ignored, ``key = value`` is ``--key=value`` and
    ``with_bound`` is ``--with-bound`` or ``--no-with-bound``.  A key must
    name an option of the subcommand other than --config, once."""
    path = args.config
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    # The parsed namespace holds exactly the subcommand's options, plus the
    # subcommand's name; neither that nor --config can be set from the file.
    settable = vars(args).keys() - {"command", "config"}
    flags = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParameterError(f"{path}: line {lineno}: expected key = value")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in settable:
            raise ParameterError(f"{path}: line {lineno}: key {key!r} does not apply to {args.command}")
        if key in seen:
            raise ParameterError(
                f"{path}: line {lineno}: duplicate key {key!r}, already set on line {seen[key]}")
        seen[key] = lineno
        if key == "with_bound" and value.lower() not in _TRUE + _FALSE:
            raise ParameterError(
                f"config with_bound must be one of {'/'.join(_TRUE + _FALSE)}, got {value!r}")
        if key == "set":
            value = _config_relative_set(value, Path(path).parent)
        flags.append(f"--{key.replace('_', '-')}={value}" if key != "with_bound"
                     else "--with-bound" if value.lower() in _TRUE else "--no-with-bound")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cshd",
        description=(
            "Derivative-free estimates of the gradient (generalized centered simplex "
            "gradient) and of the Hessian diagonal (centered simplex Hessian diagonal) "
            "over direction sets, with error reporting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_h_grid=False):
        p.add_argument("--function", help="registry function name (e.g. rosenbrock2, expprod3)")
        p.add_argument("--point", help='point of interest, e.g. "1.1,1.21001"')
        p.add_argument(
            "--set",
            dest="set",
            help=(
                "direction set: cb | rb | cmpb | rmpb | custom:PATH.  Custom files hold "
                "'n k' on the first line then n rows of k decimals; custom entries below "
                "1e-14 * radius count as zero in the lonely test"
            ),
        )
        if need_h_grid:
            p.add_argument("--h-grid", dest="h_grid", help="geometric grid START:STOP:FACTOR")
        p.add_argument("--format", choices=FORMATS, default="csv",
                       help="output format (default csv)")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--config", help="file of 'key = value' lines, each read as --key=value "
                       "before the command-line flags, which win; a key may appear once")

    p_approx = sub.add_parser("approx", help="single approximation at one h")
    common(p_approx)
    p_approx.add_argument("--h", type=float, default=1.0,
                          help="scale of the direction set (default 1)")
    p_approx.add_argument("--f0", type=float, help="known value of f at the point (saves one evaluation)")
    p_approx.add_argument("--with-bound", action=argparse.BooleanOptionalAction, default=False,
                          help="also evaluate the error-bound breakdown")

    p_sweep = sub.add_parser("sweep", help="approximation errors over an h grid with an order fit")
    common(p_sweep, need_h_grid=True)
    p_sweep.add_argument("--with-bound", action=argparse.BooleanOptionalAction, default=False,
                         help="fill the bound columns for every row")

    p_limit = sub.add_parser("limit-study", help="small-h limit estimate, grid infimum, monotonicity check")
    common(p_limit, need_h_grid=True)

    p_repro = sub.add_parser("reproduce", help="re-run a bundled reference experiment")
    p_repro.add_argument("target", choices=experiments.REPRO_TARGETS)
    p_repro.add_argument("--format", choices=FORMATS, default="csv")
    p_repro.add_argument("--out", help="write output to this file instead of stdout")

    return parser


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ParameterError(f"--{name.replace('_', '-')} is required for this command")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _run(args: argparse.Namespace) -> int:
    if args.command == "reproduce":
        result = experiments.run_reproduce(args.target)
        _emit(result.render(args.format), args.out)
        return EXIT_REPRODUCTION_FAILED if result.failed else EXIT_OK

    _require(args, "function", "point", "set")
    func = registry.get(args.function)
    point = _parse_point(args.point)
    directions = _parse_set(args.set)

    if args.command == "approx":
        S = experiments.build_scaled_set(directions, func.dim, args.h)
        result = experiments.run_approx(
            func, point, S, h=args.h, with_bound=args.with_bound, known_f0=args.f0
        )
    elif args.command == "sweep":
        _require(args, "h_grid")
        hs = experiments.parse_h_grid(args.h_grid)
        result = experiments.run_sweep(func, point, directions, hs, with_bound=args.with_bound)
    else:  # limit-study
        hs = experiments.parse_h_grid(args.h_grid) if args.h_grid else None
        result = experiments.run_limit_study(func, point, directions, hs=hs)
    _emit(result.report.render(args.format), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The subcommand is argv[0]; explicit flags come last and so win.
            args = parser.parse_args([argv[0], *_config_argv(args), *argv[1:]])
        return _run(args)
    except BoundInapplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_INAPPLICABLE
    except (StencilError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
