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
from .exceptions import BoundInapplicableError, DimensionError, ParameterError, StencilError
from .report import FORMATS, ExperimentReport, fmt_float
from .sets import SetKind, load_directions

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BOUND_INAPPLICABLE = 3
EXIT_REPRODUCTION_FAILED = 4

_CONFIG_KEYS = ("function", "point", "set", "h", "h_grid", "f0", "format", "out", "with_bound")


def _parse_point(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"point must be comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ParameterError("point must contain at least one coordinate")
    return np.array(values)


def _parse_set(text: str):
    """Return (SetKind, custom SampleDirections or None)."""
    low = text.strip().lower()
    if low.startswith("custom:"):
        path = text.strip()[len("custom:"):]
        if not path:
            raise ParameterError("custom set needs a path: --set custom:PATH")
        return SetKind.CUSTOM, load_directions(path)
    try:
        return SetKind(low), None
    except ValueError:
        raise ParameterError(
            f"unknown set {text!r}; expected cb, rb, cmpb, rmpb or custom:PATH"
        ) from None


def _load_config(path: str) -> dict[str, str]:
    """Key = value lines; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParameterError(f"{path}: line {lineno}: expected key = value")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"{path}: line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _config_relative_set(value: str, config_dir: Path) -> str:
    """A ``set`` value read from a config file: a relative ``custom:PATH``
    is taken from the config file's directory, not from the cwd."""
    text = value.strip()
    prefix, path = text[:len("custom:")], text[len("custom:"):]
    if prefix.lower() != "custom:" or not path:
        return value
    return prefix + str(config_dir / path)


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    cfg = _load_config(args.config)
    if "set" in cfg:
        cfg["set"] = _config_relative_set(cfg["set"], Path(args.config).parent)
    for key, value in cfg.items():
        if not hasattr(args, key):
            continue
        current = getattr(args, key)
        if key == "with_bound":
            if current is False:
                setattr(args, key, value.lower() in ("1", "true", "yes", "on"))
        elif current is None:
            if key == "format" and value not in FORMATS:
                raise ParameterError(
                    f"config format must be {' or '.join(FORMATS)}, got {value!r}")
            setattr(args, key, value)


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
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="output format (default csv)")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--config", help="key = value file supplying defaults for the flags")

    p_approx = sub.add_parser("approx", help="single approximation at one h")
    common(p_approx)
    p_approx.add_argument("--h", type=float, help="scale of the direction set (default 1)")
    p_approx.add_argument("--f0", type=float, help="known value of f at the point (saves one evaluation)")
    p_approx.add_argument("--with-bound", dest="with_bound", action="store_true",
                          help="also evaluate the error-bound breakdown")

    p_sweep = sub.add_parser("sweep", help="approximation errors over an h grid with an order fit")
    common(p_sweep, need_h_grid=True)
    p_sweep.add_argument("--with-bound", dest="with_bound", action="store_true",
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


def _approx_text(result: experiments.ApproxResult, fmt: str) -> str:
    report = ExperimentReport([result.row])
    report.comments.append(f"g={','.join(fmt_float(v) for v in result.gradient.value)}")
    report.comments.append(f"d={','.join(fmt_float(v) for v in result.diag.value)}")
    report.comments.append(f"f0={fmt_float(result.stencil.f0)}")
    report.comments.append(f"w_rank_deficient={'true' if result.diag.w_rank_deficient else 'false'}")
    if result.bound is not None:
        b = result.bound
        report.comments.append(f"bound_pinv_norm={fmt_float(b.pinv_norm)}")
        report.comments.append(f"bound_lipschitz_term={fmt_float(b.lipschitz_term)}")
        report.comments.append(f"bound_cross_term={fmt_float(b.cross_term)}")
        report.comments.append(f"bound_total={fmt_float(b.total)}")
        if b.corollary_total is not None:
            report.comments.append(f"bound_corollary_total={fmt_float(b.corollary_total)}")
    return report.render(fmt)


def _run(args: argparse.Namespace) -> int:
    if args.command == "reproduce":
        result = experiments.run_reproduce(args.target)
        _emit(result.render(args.format), args.out)
        return EXIT_REPRODUCTION_FAILED if result.failed else EXIT_OK

    _apply_config(args)
    if args.format is None:
        args.format = "csv"
    _require(args, "function", "point", "set")
    func = registry.get(args.function)
    point = _parse_point(args.point) if isinstance(args.point, str) else args.point
    kind, custom = _parse_set(args.set)

    if args.command == "approx":
        h = float(args.h) if args.h is not None else 1.0
        if not (np.isfinite(h) and h > 0):
            raise ParameterError(f"--h must be positive and finite, got {args.h}")
        S = experiments.build_scaled_set(kind, func.dim, h, custom)
        f0 = float(args.f0) if args.f0 is not None else None
        result = experiments.run_approx(
            func, point, S, h=h, with_bound=args.with_bound, known_f0=f0
        )
        _emit(_approx_text(result, args.format), args.out)
        return EXIT_OK

    if args.command == "sweep":
        _require(args, "h_grid")
        hs = experiments.parse_h_grid(args.h_grid)
        result = experiments.run_sweep(
            func, point, kind, hs, custom=custom, with_bound=args.with_bound
        )
        _emit(result.report.render(args.format), args.out)
        return EXIT_OK

    if args.command == "limit-study":
        hs = experiments.parse_h_grid(args.h_grid) if args.h_grid else None
        result = experiments.run_limit_study(func, point, kind, hs=hs, custom=custom)
        _emit(result.report.render(args.format), args.out)
        return EXIT_OK

    raise ParameterError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # args.h/f0 may arrive as strings through a config file
    for key in ("h", "f0"):
        value = getattr(args, key, None)
        if isinstance(value, str):
            try:
                setattr(args, key, float(value))
            except ValueError:
                print(f"error: --{key} must be numeric, got {value!r}", file=sys.stderr)
                return EXIT_INPUT_ERROR
    try:
        return _run(args)
    except BoundInapplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_INAPPLICABLE
    except (ParameterError, DimensionError, StencilError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
