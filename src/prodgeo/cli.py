"""Command-line surface.

Subcommands: eval, elasticity, curvature, classify, verify, scan.  Every
command reads a JSON function document (--fn), works on a point (--at) or a
per-axis box (--box, "lo:hi" entries), and emits one report to stdout as
JSON (default) or CSV.  Reports carry the tool version, the sha256 digest of
the function document, the seed, and every tolerance in effect, and identical
configurations produce byte-identical output: floats are printed with 17
significant digits, JSON keys are sorted, and scan rows come in grid order.

Exit status: 0 on success, 1 when the request itself is invalid (unreadable
or malformed document, bad flags, wrong arity), 2 when the mathematics
refuses (evaluation outside a domain, degenerate hypothesis, numerical
failure).  Errors are reported as a machine-readable JSON record on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, tolerances
from .classify import (
    classify_quasi_sum, verify_theorem_11, verify_theorem_41,
    verify_theorem_42,
)
from .elasticity import (
    detect_ces, hicks_elasticity, hicks_values, pairwise_elasticities,
)
from .errors import DomainError, SpecError
from .families import default_box, expr_from_dict, validate_box
from .geometry import graph_geometry, surface_curvatures
from .sampling import grid_shape, log_grid

TOOL = "prodgeo"
COMMANDS = ("eval", "elasticity", "curvature", "classify", "verify", "scan")

__all__ = ["RunConfig", "run", "main", "entrypoint"]


@dataclass(frozen=True)
class RunConfig:
    """One fully-parsed invocation; ``run`` needs nothing else."""

    command: str
    fn_path: str
    at: tuple | None = None
    box: tuple | None = None
    samples: int = 100
    pair: tuple | None = None
    theorem: str | None = None
    out: str = "json"
    seed: int = 0
    jobs: int = 1


# -- deterministic rendering --------------------------------------------------


def _float_text(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _to_json(value) -> str:
    """Single-line JSON with sorted keys and 17-significant-digit floats.

    Non-finite floats become the strings "inf"/"-inf"/"nan" so the output
    stays strict JSON.
    """
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v):
            return format(v, ".17g")
        return json.dumps(_float_text(v))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, dict):
        body = ",".join(f"{json.dumps(str(k))}:{_to_json(v)}"
                        for k, v in sorted(value.items()))
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _to_json(value.tolist())
    raise SpecError(f"cannot serialize {type(value).__name__} to JSON")


def _cell(value) -> str:
    if value is None:
        text = ""
    elif isinstance(value, (bool, np.bool_)):
        text = "true" if value else "false"
    elif isinstance(value, (float, np.floating)):
        text = _float_text(float(value))
    elif isinstance(value, (int, np.integer)):
        text = str(int(value))
    else:
        text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flatten(value, prefix: str, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], path, rows)
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            _flatten(item, f"{prefix}[{idx}]", rows)
    else:
        rows.append((prefix, _cell(value)))


def _envelope(config: RunConfig, digest: str) -> dict:
    env = {
        "tool": TOOL,
        "version": __version__,
        "command": config.command,
        "digest": digest,
        "seed": config.seed,
        "samples": config.samples,
        "tolerances": tolerances.as_dict(),
    }
    if config.at is not None:
        env["at"] = list(config.at)
    if config.box is not None:
        env["box"] = [list(axis) for axis in config.box]
    if config.pair is not None:
        env["pair"] = [config.pair[0] + 1, config.pair[1] + 1]
    if config.theorem is not None:
        env["theorem"] = config.theorem
    return env


def _comment_lines(env: dict) -> list:
    lines = []
    for key in sorted(env):
        if key in ("tolerances", "report"):
            continue
        lines.append(f"# {key}: {_to_json(env[key])}")
    for name, value in sorted(env["tolerances"].items()):
        lines.append(f"# tolerance {name}: {_float_text(value)}")
    return lines


def _render(config: RunConfig, env: dict) -> str:
    if config.out == "json":
        return _to_json(env)
    lines = _comment_lines(env)
    report = env["report"]
    if config.command == "scan":
        lines.append(",".join(report["columns"]))
        # Every scan cell is a float, which never needs CSV quoting, and
        # "{:.17g}" prints inf, -inf and nan exactly as _float_text does.
        row_format = ",".join(["{:.17g}"] * len(report["columns"]))
        lines.extend(row_format.format(*row["cells"]) for row in report["rows"])
    else:
        lines.append("key,value")
        flat: list = []
        _flatten(report, "", flat)
        lines.extend(f"{_cell(k)},{v}" for k, v in flat)
    return "\n".join(lines)


# -- command implementations ---------------------------------------------------


def _require_at(config: RunConfig, n: int) -> tuple:
    if config.at is None:
        raise SpecError(f"{config.command} requires --at")
    at = config.at
    if len(at) != n:
        raise SpecError(f"point has {len(at)} coordinates, expected {n}")
    if any(not math.isfinite(v) or v <= 0.0 for v in at):
        raise SpecError("point coordinates must be finite and positive")
    return at


def _resolve_box(config: RunConfig, n: int) -> tuple:
    box = config.box if config.box is not None else default_box(n)
    return validate_box(box, n)


def _check_pair(pair, n: int) -> tuple:
    i, j = pair
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise SpecError(f"pair must name two distinct inputs in 1..{n}")
    return i, j


def _cmd_eval(config: RunConfig, expr) -> dict:
    at = _require_at(config, expr.n)
    jet = expr.jet(at)
    return {"point": list(at), "value": jet.value,
            "gradient": jet.gradient.tolist(),
            "hessian": jet.hessian.tolist()}


def _cmd_curvature(config: RunConfig, expr) -> dict:
    at = _require_at(config, expr.n)
    return graph_geometry(expr, at).as_dict()


def _cmd_elasticity(config: RunConfig, expr) -> dict:
    if config.at is not None:
        at = _require_at(config, expr.n)
        if config.pair is not None:
            i, j = _check_pair(config.pair, expr.n)
            values = [(i, j, hicks_elasticity(expr, at, i, j))]
        else:
            values = pairwise_elasticities(expr, at)
        pairs = {f"{i + 1},{j + 1}": {"kind": h.kind, "value": h.value}
                 for i, j, h in values}
        return {"mode": "point", "point": list(at), "pairs": pairs}
    box = _resolve_box(config, expr.n)
    report = detect_ces(expr, box, samples=config.samples, seed=config.seed)
    out = report.as_dict()
    out["mode"] = "box"
    out["box"] = [list(axis) for axis in box]
    return out


def _cmd_classify(config: RunConfig, expr) -> dict:
    box = _resolve_box(config, expr.n)
    result = classify_quasi_sum(expr, box, samples=config.samples,
                                seed=config.seed)
    return result.as_dict()


def _cmd_verify(config: RunConfig, expr) -> dict:
    if config.theorem is None:
        raise SpecError("verify requires --theorem")
    box = _resolve_box(config, expr.n)
    checker = {"1.1": verify_theorem_11, "4.1": verify_theorem_41,
               "4.2": verify_theorem_42}[config.theorem]
    report = checker(expr, box, samples=config.samples, seed=config.seed)
    return report.as_dict()


def _cmd_scan(config: RunConfig, expr) -> dict:
    box = _resolve_box(config, expr.n)
    grid = log_grid(box, config.samples)
    pair = config.pair if config.pair is not None else (0, 1)
    i, j = _check_pair(pair, expr.n)
    value, gradient, hessian = expr.derivatives(grid)
    surface = surface_curvatures(gradient, hessian)
    hicks = hicks_values(grid, gradient, hessian, min(i, j), max(i, j))
    table = np.column_stack([
        grid, value, surface["area_factor"], surface["gauss_kronecker"],
        surface["flatness_residual"], hicks])

    columns = [f"x{k + 1}" for k in range(expr.n)]
    columns += ["f", "W", "G", "flatness_residual", f"H{i + 1}{j + 1}"]
    return {
        "box": [list(axis) for axis in box],
        "points_per_axis": grid_shape(expr.n, config.samples),
        "columns": columns,
        "rows": [{"cells": cells} for cells in table.tolist()],
    }


_DISPATCH = {
    "eval": _cmd_eval,
    "elasticity": _cmd_elasticity,
    "curvature": _cmd_curvature,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def _error_payload(config, digest: str | None, exc: BaseException) -> dict:
    return {
        "tool": TOOL,
        "version": __version__,
        "command": None if config is None else config.command,
        "digest": digest,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def run(config: RunConfig) -> tuple:
    """Execute one configuration; returns (exit status, report text)."""
    digest = None
    try:
        with open(config.fn_path, "rb") as handle:
            raw = handle.read()
        digest = "sha256:" + hashlib.sha256(raw).hexdigest()
        doc = json.loads(raw.decode("utf-8"))
        expr = expr_from_dict(doc, box=config.box)
        report = _DISPATCH[config.command](config, expr)
        env = _envelope(config, digest)
        env["report"] = report
        return 0, _render(config, env)
    except (DomainError, np.linalg.LinAlgError, OverflowError,
            ZeroDivisionError, FloatingPointError) as exc:
        return 2, _to_json(_error_payload(config, digest, exc))
    except (SpecError, OSError, UnicodeDecodeError, ValueError) as exc:
        return 1, _to_json(_error_payload(config, digest, exc))


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors."""

    def error(self, message):
        raise SpecError(message)


def _parse_point(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SpecError(f"could not parse point {text!r}") from exc


def _parse_box(text: str) -> tuple:
    axes = []
    for tok in text.split(","):
        lo, sep, hi = tok.partition(":")
        if not sep:
            raise SpecError(f"box axis {tok!r} is not of the form lo:hi")
        try:
            axes.append((float(lo), float(hi)))
        except ValueError as exc:
            raise SpecError(f"could not parse box axis {tok!r}") from exc
    return validate_box(axes)


def _parse_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"pair must be two comma-separated indices, got {text!r}")
    try:
        i, j = (int(tok) for tok in parts)
    except ValueError as exc:
        raise SpecError(f"could not parse pair {text!r}") from exc
    if i < 1 or j < 1:
        raise SpecError("pair indices are 1-based")
    return i - 1, j - 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL, description=__doc__.splitlines()[0]
                     if __doc__ else None)
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--fn", required=True, metavar="PATH",
                         help="JSON function document")
        sub.add_argument("--at", metavar="P1,P2,...",
                         help="evaluation point, comma-separated decimals")
        sub.add_argument("--box", metavar="LO:HI,...",
                         help="per-axis bounds, lo:hi per axis")
        sub.add_argument("--samples", type=int, default=100, metavar="N")
        sub.add_argument("--pair", metavar="I,J",
                         help="1-based input pair")
        sub.add_argument("--theorem", choices=("1.1", "4.1", "4.2"))
        sub.add_argument("--out", choices=("json", "csv"), default="json")
        sub.add_argument("--seed", type=int, default=0, metavar="INT")
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="accepted and ignored: scan evaluates its "
                              "whole grid in one vectorised pass")
    return parser


def parse_config(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    if ns.samples < 1:
        raise SpecError("--samples must be at least 1")
    if ns.jobs < 1:
        raise SpecError("--jobs must be at least 1")
    return RunConfig(
        command=ns.command,
        fn_path=ns.fn,
        at=None if ns.at is None else _parse_point(ns.at),
        box=None if ns.box is None else _parse_box(ns.box),
        samples=ns.samples,
        pair=None if ns.pair is None else _parse_pair(ns.pair),
        theorem=ns.theorem,
        out=ns.out,
        seed=ns.seed,
        jobs=ns.jobs,
    )


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except SpecError as exc:
        sys.stdout.write(_to_json(_error_payload(None, None, exc)) + "\n")
        return 1
    status, text = run(config)
    sys.stdout.write(text + "\n")
    return status


def entrypoint() -> None:
    raise SystemExit(main())
