"""Per-point tables as text, 4,096 rows at a time, each cell as
``format(v, ".17g")`` writes it, by one vectorised writer.  Only a report
that holds a per-point table imports this module."""

import functools
from math import ldexp

import numpy as np

_BLOCK_ROWS = 4096


@functools.cache
def _g17_tables() -> tuple:
    """The tables of ``_g17``, built on first use: for k in [-310, 340),
    10^k = c·2^b with c in [1, 2) as c_hi + c_lo from exact integers, and
    the least double >= 10^k; the ASCII of 0..9999 in the low four bytes of
    a lane; per group k of four digits, a cell's digit count where it is the
    last group not 0 (1 for 0); a cell's masks and fixed bytes per layout
    and digit count; the exponent bytes of a cell's last lane."""
    rows, pow5 = {}, 1
    for k in range(340):  # 10^k = 5^k 2^k and 10^-k = 2^w / 5^k 2^(-k-w)
        w = pow5.bit_length()
        hi = (1 << w) / pow5  # correctly rounded, as is each quotient below
        lo = ((1 << w + 52) - int(hi * 2 ** 52) * pow5) / pow5
        rows[-k] = hi, ldexp(lo, -52), -k - w  # ldexp: exact, none subnormal
        hi = float(pow5)  # float() and ldexp round an int once
        rows[k] = ldexp(hi, 1 - w), ldexp(pow5 - int(hi), 1 - w), k + w - 1
        pow5 *= 5
    c_hi, c_lo, b = np.array([rows[k] for k in range(-310, 340)]).T
    b = b.astype(np.int32)
    with np.errstate(over="ignore"):  # the least double >= 10^k is inf past 1e308
        least = np.ldexp(c_hi, b)  # c_hi is c rounded to nearest
    least[c_lo > 0] = np.nextafter(least[c_lo > 0], np.inf)
    split = c_hi * 134217729.0
    c_hh = split - (split - c_hi)

    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T
    quad = np.zeros((10000, 8), np.uint8)
    quad[:, :4] = digits + 48
    last = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)).max(1)  # its place
    sig = np.where(last, np.uint8([[1], [5], [9], [13]]) + last, 1)
    # Layout e10 + 4 for fixed notation (e10 in [-4, 16]), 21 for scientific.
    # In a template, 1 keeps digit j at byte j + 1 and 2 keeps it moved to
    # j + 2 (j + 6 after "0.000"); other bytes stand as they are.  A layout's
    # template for nd digits is a prefix of its template for 17.
    templates = []
    for e10 in range(-4, 18):
        point = 1 if e10 == 17 else e10 + 1  # digits before the point
        full = "\0" + ("0.000"[:1 - e10].ljust(5, "\0") if e10 < 0
                       else "\1" * point + ".") + "\2" * 17
        templates += [full[:6 + nd if e10 < 0 else 2 + nd if nd > point
                           else 1 + point].ljust(24, "\0") for nd in range(1, 18)]
    cells = np.frombuffer("".join(templates).encode(), np.uint8).reshape(-1, 3, 8)
    layouts = np.concatenate([(cells == 1) * np.uint8(255), (cells == 2)
                              * np.uint8(255), cells * (cells > 2)], 1)
    shift = np.where(np.arange(len(cells)) < 4 * 17, 40, 8).astype("<u8")
    # A scientific cell's last lane: "e" at byte 3, the sign, then the last
    # two or three of the four digits of |e10|.
    e10 = np.arange(-300, 301)
    fixed, size = (e10 >= -4) & (e10 <= 16), np.abs(e10)
    exp = np.where(e10 < 0, 45, 43).astype("<u8") << 32 | 101 << 24 | quad.view(
        "<u8")[size, 0] >> np.where(size < 100, 16, 8).astype("<u8") << 40
    return (c_hh, c_hi - c_hh, c_hi, c_lo, b, least,
            (np.arange(11, dtype="<u8") + 48) << 8, quad.view("<u8").ravel(),
            sig, np.vstack([layouts.view("<u8")[..., 0].T, shift, 64 - shift]),
            np.where(fixed, e10 + 4, 21) * 17 - 1, np.where(fixed, 0, exp))


def _g17(x: np.ndarray, text) -> np.ndarray:
    """``format(v, ".17g")`` of each element v of the float64 array ``x``,
    as ASCII zero-padded to 24 bytes (shape ``x.shape + (24,)``).

    For 1e-300 <= |v| <= 1e300 numpy writes the digits: with v = m·2^q, m in
    [0.5, 1), e10 = floor(log10|v|) is k = floor((q-1)·log10 2) or k + 1, as
    |v| < or >= the least double >= 10^(k+1); with 10^(16-e10) = c·2^b,
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
    m, q = np.frexp(a)
    e10 = np.floor((q - 1) * np.log10(2.0)).astype(np.int64)
    e10 += a >= least[e10 + 311]
    s = 326 - e10  # the row of 10^(16 - e10), its entries gathered once
    hh, hl, tail, scale = c_hh[s], c_hl[s], c_lo[s], q + b[s]
    split = m * 134217729.0
    mh = split - (split - m)
    ml = m - mh
    p = m * c_hi[s]
    lo = (mh * hh - p) + mh * hl + ml * hh + ml * hl + m * tail
    hi, lo = np.ldexp(p, scale), np.ldexp(lo, scale)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi is even
    unsure = (abs(lo - np.floor(lo) - 0.5) < 2.0 ** -40) & (tail != 0) \
        | (d == 10 ** 17)  # e.g. 1e-79 and the other doubles just below 10^k
    d[zero] = 0  # and e10 = 0, from a = 1
    top, high = d // 10 ** 16, d // 10 ** 8  # d >= 0: // and multiply-subtract
    groups = []
    for half in (high - top * 10 ** 8, d - high * 10 ** 8):
        group = half // 10 ** 4
        groups += [group, half - group * 10 ** 4]
    nd = sig[0][groups[0]]  # the last group that is not 0 counts
    for k in range(1, 4):
        np.maximum(nd, sig[k][groups[k]], out=nd)
    high = quad[groups[0]] | quad[groups[1]] << 32
    low = quad[groups[2]] | quad[groups[3]] << 32
    lanes = [lead[top] | high << 16, high >> 48 | low << 16, low >> 48]
    e10 += 300
    mask = np.take(layouts, rows[e10] + nd, axis=1)
    shift, back = mask[9], mask[10]
    out = np.empty((len(flat), 3), "<u8")
    for k, lane in enumerate(lanes):
        move = lane << shift | (lanes[k - 1] >> back if k else 0)
        np.bitwise_or(lane & mask[k], move & mask[3 + k], out=out[:, k])
        out[:, k] |= mask[6 + k]
    out[:, 0] |= np.signbit(flat) * np.uint64(45)
    out[:, 2] |= exp[e10]
    cells = out.view(np.uint8)
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
    cells go to _g17 a few columns of a block at a time.  Each is copied to
    its slots in a row buffer that keeps ``row``'s literals while reused."""
    literals = [part.encode() for part in row.split("\0")]
    template = bytes(24).join(literals)  # a row with every cell still NUL
    slot = np.cumsum([len(part) + 24 for part in literals[:-1]]) - 24
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
        for k in range(0, len(distinct), _BLOCK_ROWS)]).view("V24")
    buf = bytearray()  # a block's bytes, reused while the blocks are full
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start:start + _BLOCK_ROWS]
        n = len(block)
        runs = [(same, written[np.searchsorted(  # cells as 24-byte items
            distinct, keys[start:start + n, same].T)])]
        width = max(1, _BLOCK_ROWS // n)  # columns per _g17 call
        for k in range(0, len(other), width):
            group = other[k:k + width]
            runs.append((group, _g17(block[:, group].T, text).view("V24")))
        if len(buf) != n * len(template):  # after _g17: a fresh heap faults less
            buf = bytearray(n * len(template))
            table = np.frombuffer(buf, np.uint8).reshape(n, -1)
            table[:] = np.frombuffer(template, np.uint8)
        for group, cells in runs:
            for col, column in zip(group, cells):
                for at in slot[np.equal(cols, col)]:
                    table[:, at:at + 24].view("V24")[...] = column
        yield str(memoryview(buf.translate(None, b"\0"))[:-1], "utf-8")
