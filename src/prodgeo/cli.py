"""Command-line surface.

Commands: eval, elasticity, curvature, classify, verify, scan.  Every
command reads a JSON function document (--fn), works on a point (--at) or a
per-axis box (--box, "lo:hi" entries), and emits one report to stdout as
JSON (default) or CSV.  Reports carry the tool version, the sha256 digest of
the function document, the seed, and every tolerance the library reads, and
identical configurations produce byte-identical output (17 significant digits
per float, sorted JSON keys, scan rows in grid order).

Exit status: 0 on success, 1 when the request itself is invalid (unreadable
or malformed document, bad flags, wrong arity), 2 when the mathematics
refuses (evaluation outside a domain, degenerate hypothesis, numerical
failure).  Errors are reported as a machine-readable JSON record on stdout.
"""

from __future__ import annotations

import argparse
import functools
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
    PointRecords, detect_ces, hicks_elasticity, hicks_values,
    pairwise_elasticities,
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


def _leaf(value) -> str:
    """Text of one report leaf, shared by JSON values, CSV cells and CSV
    comment lines: floats with 17 significant digits (inf, -inf and nan
    spelled out), bools as true/false, None as the empty string (JSON writes
    null)."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, np.generic):
        return _leaf(value.item())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    raise SpecError(f"cannot serialize {type(value).__name__}")


@functools.lru_cache(maxsize=256)
def _json_key(key) -> str:
    """Encoded dict key: a report repeats a few keys on every row."""
    return json.dumps(str(key))


def _to_json(value) -> str:
    """Single-line JSON with sorted keys and leaves written by ``_leaf``.

    Non-finite floats become the strings "inf"/"-inf"/"nan" so the output
    stays strict JSON.  The common types are tested first.
    """
    kind = type(value)
    if kind is float:
        return _leaf(value) if math.isfinite(value) else f'"{_leaf(value)}"'
    if kind is dict:
        return "{" + ",".join([_json_key(k) + ":" + _to_json(v)
                               for k, v in sorted(value.items())]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join(map(_to_json, value)) + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if kind is PointRecords:
        # One row template from the sorted fields; a row holding inf or nan
        # takes the dict path instead, which quotes them.
        template = "{{" + ",".join(
            _json_key(name) + (":[" + ",".join(["{:.17g}"] * width) + "]"
                               if width else ":{:.17g}")
            for name, width in value.fields) + "}}"
        lines = _table_lines(value, template)
        for i in np.flatnonzero(~np.isfinite(value.data).all(axis=1)):
            lines[i] = _to_json(value[i])
        return "[" + ",".join(lines) + "]"
    if isinstance(value, (np.ndarray, np.generic)):
        return _to_json(value.tolist())
    return _leaf(value)


_BLOCK_ROWS = 4096


def _table_lines(table: PointRecords, template: str) -> list:
    """``template.format`` of each row of ``table``; only one block of rows
    is held as Python floats at a time."""
    lines = []
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table.data[start:start + _BLOCK_ROWS].tolist()
        lines += [template.format(*row) for row in block]
    return lines


def _cell(value) -> str:
    text = _leaf(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flatten(value, prefix: str, lines: list) -> None:
    """Append one "key,value" CSV line per leaf of ``value``."""
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], path, lines)
    elif isinstance(value, (list, tuple, PointRecords)):
        for idx, item in enumerate(value):
            _flatten(item, f"{prefix}[{idx}]", lines)
    else:
        lines.append(f"{_cell(prefix)},{_cell(value)}")


def _envelope(config: RunConfig, digest: str) -> dict:
    """The report's envelope; the request fields given on the command line
    (--at, --box, --pair, --theorem) are echoed, the others left out."""
    env = {"tool": TOOL, "version": __version__, "command": config.command,
           "digest": digest, "seed": config.seed, "samples": config.samples,
           "tolerances": tolerances.as_dict()}
    given = {"at": config.at and list(config.at),
             "box": config.box and [list(axis) for axis in config.box],
             "pair": config.pair and [config.pair[0] + 1, config.pair[1] + 1],
             "theorem": config.theorem}
    env.update((key, value) for key, value in given.items()
               if value is not None)
    return env


def _render(config: RunConfig, env: dict) -> str:
    if config.out == "json":
        return _to_json(env)
    lines = [f"# {key}: {_to_json(value)}" for key, value in sorted(env.items())
             if key not in ("tolerances", "report")]
    lines += [f"# tolerance {name}: {_leaf(value)}"
              for name, value in sorted(env["tolerances"].items())]
    report = env["report"]
    if config.command == "scan":
        lines.append(",".join(report["columns"]))
        # Every scan cell is a float, which never needs CSV quoting, and
        # "{:.17g}" prints inf, -inf and nan exactly as _leaf does.
        row_format = ",".join(["{:.17g}"] * len(report["columns"]))
        lines += _table_lines(report["rows"], row_format)
    else:
        lines.append("key,value")
        _flatten(report, "", lines)
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
    return classify_quasi_sum(expr, _resolve_box(config, expr.n),
                              samples=config.samples, seed=config.seed).as_dict()


def _cmd_verify(config: RunConfig, expr) -> dict:
    if config.theorem is None:
        raise SpecError("verify requires --theorem")
    checker = {"1.1": verify_theorem_11, "4.1": verify_theorem_41,
               "4.2": verify_theorem_42}[config.theorem]
    return checker(expr, _resolve_box(config, expr.n), samples=config.samples,
                   seed=config.seed).as_dict()


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
        "rows": PointRecords((("cells", table.shape[1]),), table),
    }


_DISPATCH = {"eval": _cmd_eval, "elasticity": _cmd_elasticity,
             "curvature": _cmd_curvature, "classify": _cmd_classify,
             "verify": _cmd_verify, "scan": _cmd_scan}


def _error_payload(config, digest: str | None, exc: BaseException) -> dict:
    return {"tool": TOOL, "version": __version__,
            "command": None if config is None else config.command,
            "digest": digest,
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def run(config: RunConfig) -> tuple:
    """Execute one configuration; returns (exit status, report text)."""
    digest = None
    try:
        with open(config.fn_path, "rb") as handle:
            raw = handle.read()
        digest = "sha256:" + hashlib.sha256(raw).hexdigest()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise SpecError("function document is nested too deeply") from None
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built once per process: the
    command is a positional and every option is common to all commands."""
    parser = _Parser(prog=TOOL,
                     description=__doc__ and __doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--fn", dest="fn_path", required=True, metavar="PATH",
                        help="JSON function document")
    parser.add_argument("--at", metavar="P1,P2,...",
                        help="evaluation point, comma-separated decimals")
    parser.add_argument("--box", metavar="LO:HI,...",
                        help="per-axis bounds, lo:hi per axis")
    parser.add_argument("--samples", type=int, default=100, metavar="N")
    parser.add_argument("--pair", metavar="I,J", help="1-based input pair")
    parser.add_argument("--theorem", choices=("1.1", "4.1", "4.2"))
    parser.add_argument("--out", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0, metavar="INT")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted and ignored: scan evaluates its "
                             "whole grid in one vectorised pass")
    return parser


def parse_config(argv=None) -> RunConfig:
    fields = vars(build_parser().parse_args(argv))
    if fields["samples"] < 1:
        raise SpecError("--samples must be at least 1")
    if fields["jobs"] < 1:
        raise SpecError("--jobs must be at least 1")
    for name, parse in (("at", _parse_point), ("box", _parse_box),
                        ("pair", _parse_pair)):
        if fields[name] is not None:
            fields[name] = parse(fields[name])
    return RunConfig(**fields)


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
