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
import gc
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, tolerances
from .classify import (
    classify_quasi_sum, verify_theorem_11, verify_theorem_41,
    verify_theorem_42,
)
from .elasticity import PointRecords, detect_ces, hicks_values, tagged_pairs
from .errors import DomainError, SpecError
from .families import expr_from_dict, index_pairs, validate_box
from .geometry import graph_geometry, surface_curvatures
from .sampling import grid_shape, log_grid

TOOL = "prodgeo"

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


def _to_json(value, tables=None) -> str:
    """Single-line JSON with sorted keys and leaves written by ``_leaf``.

    Non-finite floats become the strings "inf"/"-inf"/"nan" so the output
    stays strict JSON.  The common types are tested first.  A per-point
    table is written "[\\0]", and its blocks are appended to ``tables``.
    """
    kind = type(value)
    if kind is float:
        return _leaf(value) if math.isfinite(value) else f'"{_leaf(value)}"'
    if kind is dict:
        return "{" + ",".join([_json_key(k) + ":" + _to_json(v, tables)
                               for k, v in sorted(value.items())]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_to_json(v, tables) for v in value]) + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if kind is PointRecords:
        row = "{" + ",".join(
            _json_key(name) + (":[" + ",".join("\0" * width) + "]"
                               if width else ":\0")
            for name, width in value.fields) + "},"
        tables.append((_table_blocks(value.data, row, range(
            value.data.shape[1]), _to_json), "", ","))
        return "[\0]"
    return _leaf(value)


# -- per-point tables: one vectorised ".17g" writer ----------------------------

_BLOCK_ROWS = 4096


@functools.cache
def _g17_tables() -> tuple:
    """The tables of ``_g17``, built on first use: for k in [-310, 340),
    10^k = c·2^b with c in [1, 2) as c_hi + c_lo from exact integers, and
    the least double >= 10^k; the ASCII of 0..9999 in the low four bytes of
    a lane and its significant digits; the masks and fixed bytes of a cell
    per layout and digit count; the exponent bytes of a cell's last lane."""
    rows, pow5 = {}, 1
    for k in range(340):  # 10^k = 5^k 2^k and 10^-k = 2^w / 5^k 2^(-k-w)
        w = pow5.bit_length()
        hi = (1 << w) / pow5  # correctly rounded, as is each quotient below
        lo = ((1 << w + 52) - int(hi * 2 ** 52) * pow5) / (pow5 << 52)
        rows[-k] = hi, lo, -k - w
        hi = float(pow5)
        rows[k] = hi / 2 ** (w - 1), (pow5 - int(hi)) / 2 ** (w - 1), k + w - 1
        pow5 *= 5
    c_hi, c_lo, b = np.array([rows[k] for k in range(-310, 340)]).T
    b = b.astype(np.int32)
    with np.errstate(over="ignore"):  # the least double >= 10^k is inf past 1e308
        least = np.ldexp(c_hi, b)  # c_hi is c rounded to nearest
    least[c_lo > 0] = np.nextafter(least[c_lo > 0], np.inf)
    split = c_hi * 134217729.0
    c_hh = split - (split - c_hi)

    group = np.arange(10000)[:, np.newaxis]
    quad = np.zeros((10000, 8), np.uint8)
    quad[:, :4] = group // [1000, 100, 10, 1] % 10 + 48
    sig = np.where(group[:, 0], 4 - (group % [10, 100, 1000] == 0).sum(1), 0)
    # Layout e10 + 4 for fixed notation (e10 in [-4, 16]), 21 for scientific.
    # In a template, 1 keeps digit j at byte j + 1 and 2 keeps it moved to
    # j + 2 (j + 6 after "0.000"); other bytes stand as they are.
    templates = []
    for e10 in range(-4, 18):
        point = 1 if e10 == 17 else e10 + 1  # digits before the point
        for nd in range(1, 18):
            cell = ("0.000"[:1 - e10].ljust(5, "\0") + "\2" * nd if e10 < 0
                    else "\1" * point + "." * (nd > point) + "\2" * (nd - point))
            templates.append(("\0" + cell).ljust(24, "\0"))
    cells = np.frombuffer("".join(templates).encode(), np.uint8).reshape(-1, 3, 8)
    layouts = np.concatenate([np.where(cells == 1, 255, 0), np.where(
        cells == 2, 255, 0), np.where(cells > 2, cells, 0)], 1).astype(np.uint8)
    shift = np.where(np.arange(len(cells)) < 4 * 17, 40, 8).astype("<u8")
    e10 = np.arange(-300, 301)
    fixed = (e10 >= -4) & (e10 <= 16)
    exp = "".join("\0" * 8 if -4 <= e <= 16 else f"\0\0\0e{e:+03d}".ljust(8, "\0")
                  for e in e10.tolist())
    return (c_hh, c_hi - c_hh, c_hi, c_lo, b, least,
            (np.arange(11, dtype="<u8") + 48) << 8, quad.view("<u8").ravel(),
            sig, np.vstack([layouts.view("<u8")[..., 0].T, shift, 64 - shift]),
            np.where(fixed, e10 + 4, 21) * 17 - 1,
            np.frombuffer(exp.encode(), "<u8"))


def _g17(x: np.ndarray, text) -> np.ndarray:
    """``format(v, ".17g")`` of each element v of the float64 array ``x``,
    as ASCII zero-padded to 24 bytes (shape ``x.shape + (24,)``).

    For 1e-300 <= |v| <= 1e300 numpy writes the digits: e10 =
    floor(log10|v|), made exact by comparing |v| with the least doubles
    >= 10^e10 and 10^(e10+1); with v = m·2^q and 10^(16-e10) = c·2^b,
    Dekker's TwoProduct gives m·c within 2^-104, so after the exact scaling
    by 2^(q+b) <= 2^58, V = |v|·10^(16-e10) in [1e16, 1e17) is known within
    2^-46 (exactly when c_lo = 0); V rounds half to even to the 17 digits.
    ``text`` writes the rest: non-finite values, |v| outside that range, an
    inexact V within 2^-40 of a half-integer, and V that rounds to 10^17.

    A cell is three 8-byte lanes holding the sign, then the 17 digits at
    bytes 1-17, kept there before the point and moved by one byte after it
    (by five after "0.000") through the masks of the cell's layout and digit
    count, which also write the point and the zeros; the exponent follows.
    """
    (c_hh, c_hl, c_hi, c_lo, b, least, lead, quad, sig, layouts, rows,
     exp) = _g17_tables()
    flat = np.asarray(x, np.float64).ravel()
    a = np.abs(flat)
    fast, zero = (a >= 1e-300) & (a <= 1e300), a == 0.0
    a = np.where(fast, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    e10 += (a >= least[e10 + 311]).astype(np.int64) - (a < least[e10 + 310])
    m, q = np.frexp(a)
    s = 326 - e10  # the row of 10^(16 - e10)
    split = m * 134217729.0
    mh = split - (split - m)
    ml = m - mh
    p = m * c_hi[s]
    lo = ((mh * c_hh[s] - p) + mh * c_hl[s] + ml * c_hh[s] + ml * c_hl[s]
          + m * c_lo[s])
    hi, lo = np.ldexp(p, q + b[s]), np.ldexp(lo, q + b[s])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi is even
    unsure = (abs(lo - np.floor(lo) - 0.5) < 2.0 ** -40) & (c_lo[s] != 0) \
        | (d == 10 ** 17)  # e.g. 1e-79 and the other doubles just below 10^k
    d[zero] = 0  # and e10 = 0, from a = 1
    top, high = d // 10 ** 16, d // 10 ** 8  # d >= 0: // and multiply-subtract
    groups = []
    for half in (high - top * 10 ** 8, d - high * 10 ** 8):
        group = half // 10 ** 4
        groups += [group, half - group * 10 ** 4]
    nd = np.ones_like(d)
    for k, group in enumerate(groups):
        nd = np.where(group != 0, 1 + 4 * k + sig[group], nd)
    high = quad[groups[0]] | quad[groups[1]] << 32
    low = quad[groups[2]] | quad[groups[3]] << 32
    lanes = [lead[top] | high << 16, high >> 48 | low << 16, low >> 48]
    e10 += 300
    mask = np.take(layouts, rows[e10] + nd, axis=1)
    shift, back = mask[9], mask[10]
    moved = [lanes[0] << shift, lanes[1] << shift | lanes[0] >> back,
             lanes[2] << shift | lanes[1] >> back]
    lanes = [lane & mask[k] | move & mask[3 + k] | mask[6 + k]
             for k, (lane, move) in enumerate(zip(lanes, moved))]
    lanes[0] |= np.signbit(flat) * np.uint64(45)
    lanes[2] |= exp[e10]
    cells = np.stack(lanes, 1).view(np.uint8)
    for i in np.flatnonzero(~(fast | zero) | unsure):
        cells[i] = np.frombuffer(text(float(flat[i])).encode().ljust(24, b"\0"),
                                 np.uint8)
    return cells.reshape(np.shape(x) + (-1,))


def _table_blocks(data: np.ndarray, row: str, cols, text):
    """Yield ``row`` once per row of ``data``, its k-th NUL replaced by the
    cell of column ``cols[k]`` as _g17 writes it (``text`` as its fallback),
    one string per 4,096 rows, rendered when asked for, without the last
    row's separator (``row``'s last character).  A distinct value of the
    columns whose first 64 values repeat is written once per table; other
    cells go to _g17 a few columns of a block at a time."""
    literals = [np.frombuffer(part.encode(), np.uint8) for part in row.split("\0")]
    keys = data.view(np.int64)  # keyed by bit pattern: -0.0 and 0.0 apart
    same = [k for k, column in enumerate(keys[:64].T)
            if 2 * len(set(column.tolist())) <= len(column)]
    other = [k for k in range(data.shape[1]) if k not in same]
    distinct = np.empty(0, np.int64)  # each pattern once, a column at a time
    for k in same:
        distinct = np.sort(np.concatenate([distinct, keys[:, k]]))
        distinct = distinct[np.diff(distinct, prepend=~distinct[:1]) != 0]
    written = np.concatenate([np.empty((0, 24), np.uint8)] + [
        _g17(distinct[k:k + _BLOCK_ROWS].view(np.float64), text)
        for k in range(0, len(distinct), _BLOCK_ROWS)])
    buf = bytearray()  # a block's bytes, reused while the blocks are full
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start:start + _BLOCK_ROWS]
        n = len(block)
        cells = dict(zip(same, written[np.searchsorted(
            distinct, keys[start:start + n, same].T)]))
        width = max(1, _BLOCK_ROWS // n)  # columns per _g17 call
        for k in range(0, len(other), width):
            group = other[k:k + width]
            cells.update(zip(group, _g17(block[:, group].T, text)))
        parts = [np.broadcast_to(literals[0], (n, len(literals[0])))]
        for col, literal in zip(cols, literals[1:]):
            parts += [cells[col], np.broadcast_to(literal, (n, len(literal)))]
        size = n * sum(part.shape[1] for part in parts)
        buf = buf if len(buf) == size else bytearray(size)
        np.concatenate(parts, 1, out=np.frombuffer(buf, np.uint8).reshape(n, -1))
        yield str(memoryview(buf.translate(None, b"\0"))[:-1], "utf-8")


def _cell(value) -> str:
    text = _leaf(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flatten(value, prefix: str, lines: list, tables: list) -> None:
    """Append one "key,value" CSV line per leaf of ``value``; a per-point
    table is a NUL at the end of the last line, its blocks in ``tables``."""
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
        tables.append((_table_blocks(data, row, cols, _leaf), "\n", "\n"))
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            _flatten(item, f"{prefix}[{idx}]", lines, tables)
    else:
        lines.append(f"{_cell(prefix)},{_cell(value)}")


def _envelope(config: RunConfig, digest: str, report: dict) -> dict:
    """The report in its envelope; the request fields given on the command
    line (--at, --box, --pair, --theorem) are echoed, the others left out."""
    env = {"tool": TOOL, "version": __version__, "command": config.command,
           "digest": digest, "seed": config.seed, "samples": config.samples,
           "tolerances": tolerances.as_dict(), "report": report}
    given = {"at": config.at and list(config.at),
             "box": config.box and [list(axis) for axis in config.box],
             "pair": config.pair and [config.pair[0] + 1, config.pair[1] + 1],
             "theorem": config.theorem}
    env.update((key, value) for key, value in given.items()
               if value is not None)
    return env


def _render(config: RunConfig, env: dict):
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
        tables.append((_table_blocks(report["rows"].data, ",".join(
            "\0" * len(columns)) + "\n", range(len(columns)), _leaf), "\n", "\n"))
    else:
        lines.append("key,value")
        _flatten(report, "", lines, tables)
    return _chunks("\n".join(lines).split("\0"), tables)


def _chunks(parts: list, tables: list):
    yield parts[0]
    for (blocks, first, sep), part in zip(tables, parts[1:]):
        for k, block in enumerate(blocks):
            yield sep if k else first
            yield block
        yield part


# -- command implementations ---------------------------------------------------


def _check_request(config: RunConfig, n: int) -> None:
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


def _cmd_eval(config: RunConfig, expr) -> dict:
    row = expr.derivatives([config.at])
    return {"point": list(config.at), "value": float(row.value[0]),
            "gradient": row.gradient[0].tolist(),
            "hessian": row.hessian[0].tolist()}


def _cmd_curvature(config: RunConfig, expr) -> dict:
    return graph_geometry(expr, config.at)


def _cmd_elasticity(config: RunConfig, expr) -> dict:
    if config.at is not None:
        if config.pair is None:
            i, j = index_pairs(expr.n)
        else:  # --pair 2,1 reads H_12 and keeps its key "2,1"
            i, j = np.array([config.pair]).T
        values = hicks_values(expr.derivatives([config.at]), np.minimum(i, j),
                              np.maximum(i, j))[0]
        pairs = dict(zip(zip(i.tolist(), j.tolist()), values.tolist()))
        return {"mode": "point", "point": list(config.at),
                "pairs": tagged_pairs(pairs)}
    box = validate_box(config.box, expr.n)
    return {**detect_ces(expr, box, samples=config.samples, seed=config.seed),
            "mode": "box", "box": [list(axis) for axis in box]}


def _cmd_classify(config: RunConfig, expr) -> dict:
    return classify_quasi_sum(expr, config.box, samples=config.samples,
                              seed=config.seed)


def _cmd_verify(config: RunConfig, expr) -> dict:
    checker = {"1.1": verify_theorem_11, "4.1": verify_theorem_41,
               "4.2": verify_theorem_42}[config.theorem]
    return checker(expr, config.box, samples=config.samples, seed=config.seed)


def _cmd_scan(config: RunConfig, expr) -> dict:
    box = validate_box(config.box, expr.n)
    i, j = config.pair or (0, 1)
    points = log_grid(box, config.samples)
    cells = np.empty((len(points), expr.n + 5))

    def fill(rows):
        table = expr.derivatives(points[rows])
        surface = surface_curvatures(table)
        cells[rows] = np.column_stack([
            table.points, table.value, surface["area_factor"],
            surface["gauss_kronecker"], surface["flatness_residual"],
            hicks_values(table, min(i, j), max(i, j))])

    try:  # in blocks, whose temporaries stay in reused memory
        for start in range(0, len(points), _BLOCK_ROWS):
            fill(slice(start, start + _BLOCK_ROWS))
    except DomainError:  # one whole-grid pass names the first stage to fail
        fill(slice(None))
        raise

    columns = [f"x{k + 1}" for k in range(expr.n)]
    columns += ["f", "W", "G", "flatness_residual", f"H{i + 1}{j + 1}"]
    return {"box": [list(axis) for axis in box], "columns": columns,
            "points_per_axis": grid_shape(expr.n, config.samples),
            "rows": PointRecords((("cells", cells.shape[1]),), cells)}


_DISPATCH = {"eval": _cmd_eval, "elasticity": _cmd_elasticity,
             "curvature": _cmd_curvature, "classify": _cmd_classify,
             "verify": _cmd_verify, "scan": _cmd_scan}


def _error_payload(config, digest: str | None, exc: BaseException) -> dict:
    return {"tool": TOOL, "version": __version__,
            "command": None if config is None else config.command,
            "digest": digest,
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _report(config: RunConfig | None, argv=None) -> tuple:
    """(exit status, report text chunks) of ``config`` or of the command
    line ``argv``, with all that can fail done: _g17 writes any table."""
    digest = None
    try:
        config = config or parse_config(argv)
        with open(config.fn_path, "rb") as handle:
            raw = handle.read()
        digest = "sha256:" + hashlib.sha256(raw).hexdigest()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise SpecError("function document is nested too deeply") from None
        expr = expr_from_dict(doc, box=config.box)
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


def run(config: RunConfig) -> tuple:
    """Execute one configuration; returns (exit status, report text)."""
    status, chunks = _report(config)
    return status, "".join(chunks)


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
    parser.add_argument("command", choices=_DISPATCH)
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
                             "grid in one process, in vectorised blocks")
    return parser


def parse_config(argv=None) -> RunConfig:
    fields = vars(build_parser().parse_args(argv))
    for name, least in (("samples", 1), ("jobs", 1), ("seed", 0)):
        if fields[name] < least:
            raise SpecError(f"--{name} must be at least {least}")
    for name, parse in (("at", _parse_point), ("box", _parse_box),
                        ("pair", _parse_pair)):
        if fields[name] is not None:
            fields[name] = parse(fields[name])
    return RunConfig(**fields)


def main(argv=None) -> int:
    """Write the report to stdout one table block at a time, then flush the
    process's own stdout; a failed write is one line on stderr, status 1."""
    status, chunks = _report(None, argv)
    try:
        sys.stdout.writelines(chunks)
        print(flush=sys.stdout is sys.__stdout__)  # a caller's stream: its close
    except OSError as exc:  # and no flush at exit either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"{TOOL}: cannot write the report: {exc}\n")
        return 1
    return status


def entrypoint() -> None:
    """The ``prodgeo`` command: ``main``, then a frozen heap, so that the
    collections at interpreter shutdown skip what the imports left."""
    status = main()
    gc.freeze()
    raise SystemExit(status)
