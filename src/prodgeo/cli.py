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

Options come before or after the command, as "--opt value" or "--opt=value",
by name or a unique prefix; the last of a repeated option wins.  The token
after an option is its value unless it starts with "--", and every token
after "--" is an argument.  --jobs is accepted and ignored: scan evaluates
its grid in vectorised blocks.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

try:  # the interpreter's own sha256 (_sha2 from Python 3.12): hashlib would
    from _sha256 import sha256  # load OpenSSL's _hashlib, 3-4 ms of a start
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__, tolerances
from .errors import DomainError, SpecError
from .families import (_NOT_FINITE as _KERNEL_NOT_FINITE, PointRecords,
                       expr_from_dict, index_pairs, validate_box)

TOOL = "prodgeo"

__all__ = ["run", "main"]


# -- deterministic rendering --------------------------------------------------


def _leaf(value) -> str:
    """Text of one report leaf, shared by JSON values, CSV cells and CSV
    comment lines: floats with 17 significant digits (inf, -inf and nan
    spelled out), bools as true/false, None as the empty string (JSON writes
    null)."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    raise SpecError(f"cannot serialize {type(value).__name__}")


def _to_json(value, tables=None) -> str:
    """Single-line JSON with sorted keys and leaves written by ``_leaf``.

    Non-finite floats become the strings "inf"/"-inf"/"nan" so the output
    stays strict JSON.  The common types are tested first.  A per-point
    table is written "[\\0]", its _table_blocks arguments put in ``tables``.
    """
    kind = type(value)
    if kind is float:
        return _leaf(value) if math.isfinite(value) else f'"{_leaf(value)}"'
    if kind is dict:
        return "{" + ",".join([encode_basestring_ascii(k) + ":"
                               + _to_json(v, tables)
                               for k, v in sorted(value.items())]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_to_json(v, tables) for v in value]) + "]"
    if value is None:
        return "null"
    if kind is _Rendered:
        return value.text
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if kind is PointRecords:
        row = "{" + ",".join(
            encode_basestring_ascii(name)
            + (":[" + ",".join("\0" * width) + "]" if width else ":\0")
            for name, width in value.fields) + "},"
        tables.append(((value.data, row, range(value.data.shape[1]),
                        _to_json), "", ","))
        return "[\0]"
    return _leaf(value)


class _Rendered(dict):
    """A constant table of the report: ``_to_json`` writes its ``text``,
    rendered once, and the CSV header reads its entries."""


_TOLERANCES = _Rendered(tolerances.as_dict())  # a constant of the process
_TOLERANCES.text = _to_json(dict(_TOLERANCES))


def _cell(value) -> str:
    text = _leaf(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flatten(value, prefix: str, lines: list, tables: list) -> None:
    """Append one "key,value" CSV line per leaf of ``value``; a per-point
    table is a NUL ending the last line, its blocks' arguments in ``tables``."""
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], path, lines, tables)
    elif isinstance(value, PointRecords):  # the row index is written as column 0
        keys = [f"{prefix}[\0].{name}" + (f"[{j}]" if width else "")
                for name, width in value.fields for j in range(width or 1)]
        row = "".join(_cell(key) + ",\0\n" for key in keys)
        cols = [col for k in range(len(keys)) for col in (0, k + 1)]
        data = np.column_stack([np.arange(len(value)), value.data])
        lines[-1] += "\0"
        tables.append(((data, row, cols, _leaf), "\n", "\n"))
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            _flatten(item, f"{prefix}[{idx}]", lines, tables)
    else:
        lines.append(f"{_cell(prefix)},{_cell(value)}")


def _envelope(config: SimpleNamespace, digest: str, report: dict) -> dict:
    """The report in its envelope; the request fields given on the command
    line (--at, --box, --pair, --theorem) are echoed, the others left out."""
    env = {"tool": TOOL, "version": __version__, "command": config.command,
           "digest": digest, "seed": config.seed, "samples": config.samples,
           "tolerances": _TOLERANCES, "report": report}
    given = {"at": config.at and list(config.at),
             "box": config.box and [list(axis) for axis in config.box],
             "pair": config.pair and [config.pair[0] + 1, config.pair[1] + 1],
             "theorem": config.theorem}
    env.update((key, value) for key, value in given.items()
               if value is not None)
    return env


def _render(config: SimpleNamespace, env: dict):
    """The report's text as chunks: all but the per-point tables is written
    now, a NUL (in no JSON text or report string) where their blocks go."""
    tables = []
    if config.out == "json":
        return _chunks(_to_json(env, tables).split("\0"), tables)
    lines = [f"# {key}: {_to_json(value)}" for key, value in sorted(env.items())
             if key not in ("tolerances", "report")]
    lines += [f"# tolerance {name}: {_leaf(value)}"
              for name, value in sorted(env["tolerances"].items())]
    report = env["report"]
    if config.command == "scan":
        columns = report["columns"]
        lines.append(",".join(columns) + "\0")  # float cells: no quoting
        tables.append(((report["rows"].data, ",".join("\0" * len(columns))
                        + "\n", range(len(columns)), _leaf), "\n", "\n"))
    else:
        lines.append("key,value")
        _flatten(report, "", lines, tables)
    return _chunks("\n".join(lines).split("\0"), tables)


def _chunks(parts: list, tables: list):
    yield parts[0]
    for (table, first, sep), part in zip(tables, parts[1:]):
        for k, block in enumerate(_lib("writer")._table_blocks(*table)):
            yield sep if k else first
            yield block
        yield part


# -- command implementations ---------------------------------------------------


@functools.cache
def _lib(name: str):
    """The package module ``name``, imported when a command first calls it
    (by ``__import__``, which ``-X importtime`` reports)."""
    __import__(f"{__package__}.{name}")
    return sys.modules[f"{__package__}.{name}"]


@functools.lru_cache(maxsize=64)
def _expr(raw: bytes, box):
    """The expression of a document's bytes, validated on ``box``, built once
    per (bytes, box) in a process; a build that raises is not stored."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise SpecError("function document is nested too deeply") from None
    return expr_from_dict(doc, box=box)


def _check_request(config: SimpleNamespace, n: int) -> None:
    """Check each request field the envelope echoes (--at, --box, --pair)
    against an n-input document, whether or not the command reads it; then
    that the command has the fields it requires (--at for eval and
    curvature, --theorem for verify)."""
    if config.at is not None:
        if len(config.at) != n:
            raise SpecError(
                f"point has {len(config.at)} coordinates, expected {n}")
        if any(not math.isfinite(v) or v <= 0.0 for v in config.at):
            raise SpecError("point coordinates must be finite and positive")
    if config.box is not None:
        validate_box(config.box, n)
    if config.pair is not None:
        i, j = config.pair
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise SpecError(f"pair must name two distinct inputs in 1..{n}")
    if config.at is None and config.command in ("eval", "curvature"):
        raise SpecError(f"{config.command} requires --at")
    if config.theorem is None and config.command == "verify":
        raise SpecError("verify requires --theorem")


def _cmd_eval(config: SimpleNamespace, expr) -> dict:
    row = expr.derivatives([config.at])
    return {"point": list(config.at), "value": float(row.value[0]),
            "gradient": row.gradient[0].tolist(),
            "hessian": row.hessian[0].tolist()}


def _cmd_curvature(config: SimpleNamespace, expr) -> dict:
    return _lib("geometry").graph_geometry(expr, config.at)


def _cmd_elasticity(config: SimpleNamespace, expr) -> dict:
    elasticity = _lib("elasticity")
    if config.at is not None:
        if config.pair is None:
            i, j = index_pairs(expr.n)
        else:  # --pair 2,1 keeps its key "2,1"
            i, j = np.array([config.pair]).T
        values = elasticity.hicks_values(expr.derivatives([config.at]), i, j)
        return {"mode": "point", "point": list(config.at),
                "pairs": elasticity.tagged_pairs(i, j, values[0])}
    box = validate_box(config.box, expr.n)
    return {**elasticity.detect_ces(expr, box, samples=config.samples,
                                    seed=config.seed),
            "mode": "box", "box": [list(axis) for axis in box]}


def _cmd_classify(config: SimpleNamespace, expr) -> dict:
    return _lib("classify").classify_quasi_sum(
        expr, config.box, samples=config.samples, seed=config.seed)


def _cmd_verify(config: SimpleNamespace, expr) -> dict:
    classify = _lib("classify")
    checker = {"1.1": classify.verify_theorem_11,
               "4.1": classify.verify_theorem_41,
               "4.2": classify.verify_theorem_42}[config.theorem]
    return checker(expr, config.box, samples=config.samples, seed=config.seed)


def _cmd_scan(config: SimpleNamespace, expr) -> dict:
    hicks_values = _lib("elasticity").hicks_values
    surface_curvatures = _lib("geometry").surface_curvatures
    sampling = _lib("sampling")
    box = validate_box(config.box, expr.n)
    i, j = config.pair or (0, 1)
    points = sampling.log_grid(box, config.samples)
    n, cells = expr.n, np.empty((len(points), expr.n + 5))

    def fill(rows):  # None, or the (stage, last check, error) of a failure
        stage = 0  # the kernel, surface and Hicks columns
        try:
            table, block = expr.derivatives(points[rows]), cells[rows]
            block[:, :n], block[:, n] = table.points, table.value
            stage = 1
            surface = surface_curvatures(table)
            for k, key in enumerate(("area_factor", "gauss_kronecker",
                                     "flatness_residual")):
                block[:, n + 1 + k] = surface[key]
            stage = 2
            block[:, n + 4] = hicks_values(table, i, j)
        except DomainError as exc:  # not the block's temporaries
            return (stage, str(exc) == _KERNEL_NOT_FINITE,
                    exc.with_traceback(None))

    # In blocks, whose temporaries stay in reused memory, with the error of a
    # whole-grid pass: the earliest stage's first, where the kernel's last
    # check, finiteness, comes after the one other a grid of its box can fail.
    step = _lib("writer")._BLOCK_ROWS
    failures = [failure for k in range(0, len(points), step)
                if (failure := fill(slice(k, k + step)))]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]

    columns = [f"x{k + 1}" for k in range(expr.n)]
    columns += ["f", "W", "G", "flatness_residual", f"H{i + 1}{j + 1}"]
    return {"box": [list(axis) for axis in box], "columns": columns,
            "points_per_axis": sampling.grid_shape(expr.n, config.samples),
            "rows": PointRecords((("cells", cells.shape[1]),), cells)}


_DISPATCH = {"eval": _cmd_eval, "elasticity": _cmd_elasticity,
             "curvature": _cmd_curvature, "classify": _cmd_classify,
             "verify": _cmd_verify, "scan": _cmd_scan}


def _error_payload(config, digest: str | None, exc: BaseException) -> dict:
    return {"tool": TOOL, "version": __version__,
            "command": None if config is None else config.command,
            "digest": digest,
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _report(argv) -> tuple:
    """(exit status, report text chunks) of the command line ``argv``, with
    all that can fail done: _g17 writes any table."""
    config = digest = None
    try:
        config = parse_config(argv)
        with open(config.fn_path, "rb") as handle:
            raw = handle.read()
        digest = "sha256:" + sha256(raw).hexdigest()
        expr = _expr(raw, config.box)
        _check_request(config, expr.n)
        report = _DISPATCH[config.command](config, expr)
        return 0, _render(config, _envelope(config, digest, report))
    except (DomainError, np.linalg.LinAlgError, OverflowError,
            ZeroDivisionError, FloatingPointError) as exc:
        return 2, [_to_json(_error_payload(config, digest, exc))]
    except (SpecError, OSError, UnicodeDecodeError, ValueError) as exc:
        return 1, [_to_json(_error_payload(config, digest, exc))]
    except MemoryError as exc:  # NumPy raises a private subclass
        return 1, [_to_json(_error_payload(config, digest, MemoryError(str(exc))))]


def run(argv) -> tuple:
    """The (exit status, report text) that ``main(argv)`` writes, held in
    memory; ``main`` adds the closing newline."""
    status, chunks = _report(argv)
    return status, "".join(chunks)


# -- argument parsing ----------------------------------------------------------


# The options: name -> destination, default, and the value's type: int, a
# tuple of choices, or None for text (parse_config reads --at, --box, --pair).
_OPTIONS = {
    "--fn": ("fn_path", None, None),
    "--at": ("at", None, None),
    "--box": ("box", None, None),
    "--samples": ("samples", 100, int),
    "--pair": ("pair", None, None),
    "--theorem": ("theorem", None, ("1.1", "4.1", "4.2")),
    "--out": ("out", "json", ("json", "csv")),
    "--seed": ("seed", 0, int),
    "--jobs": ("jobs", 1, int),
}
_LONG = ("--help", "--version", *_OPTIONS)  # in an ambiguity's order


def _name(token: str):
    """The option an option token names: -h for -h, -hh, ..., else the long
    option its text before any "=" names in full or by a unique prefix."""
    if token[1] != "-":
        return "-h" if set(token[1:]) == {"h"} else None
    names = [name for name in _LONG if name.startswith(token.partition("=")[0])]
    if len(names) > 1:
        raise SpecError(f"ambiguous option: {token} could match "
                        f"{', '.join(names)}")
    return names[0] if names else None


def _value(label: str, kind, text: str):
    """``text`` as the value of a ``kind`` option (or of the command)."""
    try:
        if kind is int:
            return int(text)
        if kind is None or text in kind:
            return text
        problem = (f"invalid choice: {text!r} "
                   f"(choose from {', '.join(map(repr, kind))})")
    except ValueError:
        problem = f"invalid int value: {text!r}"
    raise SpecError(f"argument {label}: {problem}")


def _help() -> str:
    """The --help text: a usage line from the option table, then this
    module's description."""
    words = [f"{name} " + (dest.upper() if kind in (None, int) else
                           "{%s}" % ",".join(kind))
             + ("" if default is None else f"={default}")
             for name, (dest, default, kind) in _OPTIONS.items()]
    return (f"usage: {TOOL} {{{','.join(_DISPATCH)}}} {words[0]} "
            f"[{'] ['.join(words[1:])}] [--version] [-h]\n\n{__doc__ or ''}")


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


def parse_config(argv=None) -> SimpleNamespace:
    """The request: the command line read in one pass, as the module's
    description says: a token that starts with "-" (not "-" itself) is an
    option, any other an argument, the first the command.  A bad value or an
    ambiguous option is refused where it is read, then what is missing, then
    what is left over; then the counts are checked, and --at, --box and
    --pair parsed in place (--pair made 0-based).  --help and --version
    write to stdout and exit 0 where they are read."""
    values = {"command": None,
              **{dest: default for dest, default, _ in _OPTIONS.values()}}
    argv = sys.argv[1:] if argv is None else argv
    extras, tokens, options = [], iter(argv), True
    for token in tokens:
        if not options or token[:1] != "-" or token == "-":  # an argument
            if values["command"] is None:
                values["command"] = _value("command", tuple(_DISPATCH), token)
            else:
                extras.append(token)
        elif token == "--":  # every token after it is an argument
            options = False
        elif (name := _name(token)) is None:
            extras.append(token)
        elif name not in _OPTIONS:  # -h, --help or --version
            sys.stdout.write(f"{TOOL} {__version__}\n"
                             if name == "--version" else _help())
            raise SystemExit(0)
        else:
            _, eq, text = token.partition("=")
            if not eq and (text := next(tokens, "--")).startswith("--"):
                raise SpecError(f"argument {name}: expected one argument")
            values[_OPTIONS[name][0]] = _value(name, _OPTIONS[name][2], text)
    missing = [name for name, value in (("command", values["command"]),
                                        ("--fn", values["fn_path"]))
               if value is None]
    if missing:
        raise SpecError("the following arguments are required: "
                        + ", ".join(missing))
    if extras:
        raise SpecError("unrecognized arguments: " + " ".join(extras))
    config = SimpleNamespace(**values)
    for name, least in (("samples", 1), ("jobs", 1), ("seed", 0)):
        if getattr(config, name) < least:
            raise SpecError(f"--{name} must be at least {least}")
    for name, parse in (("at", _parse_point), ("box", _parse_box),
                        ("pair", _parse_pair)):
        if getattr(config, name) is not None:
            setattr(config, name, parse(getattr(config, name)))
    return config


def main(argv=None) -> int:
    """Write the report to stdout one table block at a time, then flush the
    process's own stdout; a failed write is one line on stderr, status 1."""
    status, chunks = _report(argv)
    try:
        sys.stdout.writelines(chunks)
        print(flush=sys.stdout is sys.__stdout__)  # a caller's stream: its close
    except OSError as exc:  # and no flush at exit either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"{TOOL}: cannot write the report: {exc}\n")
        return 1
    return status
