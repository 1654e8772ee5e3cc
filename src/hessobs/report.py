"""Deterministic report emission: JSON document, CSV tables, grid dumps.

Identical run configuration and seed must produce byte-identical files, so
everything here avoids timestamps, ids and set iteration.  JSON and CSV
write floats with repr (shortest round-trip decimal), grid dumps with
"%.17g" (17 significant digits).

- `report.json` (and the other JSON documents): one `json.dumps` of the
  `_jsonable` copy of the document, written at once;
- the CSV tables (`norms_vs_eps.csv`, `residual_history.csv`,
  `contact_cells.csv`): `_csv_body`, which formats each distinct bit
  pattern of a numpy column once and gathers the rows from those texts
  with numpy;
- the grid dumps `u_eps_*.txt`: `_g17_lines`, a numpy kernel for the
  fixed-notation values, written as bytes after the header.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib

import numpy as np

__all__ = ["ReportBundleWriter", "fmt", "write_grid_dump"]


def fmt(v):
    """Shortest round-trip representation (repr, which prints nan, inf and
    -inf as such) of a float, true/false for a bool, str of the rest."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)  # also a numpy integer, whose str is its int's


def _csv_text(v) -> str:
    text = fmt(v)
    if any(c in text for c in ',"\r\n'):
        raise ValueError(f"CSV value {text!r} would need quoting")
    return text


def _csv_body(columns) -> bytes:
    """The data rows of a CSV table from one 1-d column per header entry,
    with no Python per cell of a numpy column.

    A numpy int, float or bool column formats each distinct bit pattern once,
    so -0.0 keeps its sign and every NaN prints nan.  The tolist() of those
    patterns holds Python ints, floats and bools, so a bool column prints
    true/false and the others what fmt prints of their numpy scalars.  Any
    other column formats each value.  The texts, each followed by its "," or "\n", fill one NUL-padded
    byte table; each row gathers its cells from it, and one mask cuts off
    the padding."""
    texts, index = [], []
    for j, col in enumerate(columns):
        sep = "," if j + 1 < len(columns) else "\n"
        if isinstance(col, np.ndarray) and col.dtype.kind in "biuf":
            bits, inverse = np.unique(col.view(f"u{col.dtype.itemsize}"), return_inverse=True)
            col = bits.view(col.dtype).tolist()
        else:
            inverse = np.arange(len(col))
        index.append(inverse + len(texts))
        texts.extend((_csv_text(v) + sep).encode() for v in col)
    table = np.array(texts, dtype=bytes)
    keep = np.arange(table.itemsize) < np.strings.str_len(table)[:, None]
    rows = np.stack(index, axis=1)
    text = table.view(np.uint8).reshape(-1, table.itemsize).take(rows, axis=0)
    return text[keep.take(rows, axis=0)].tobytes()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x) or np.isinf(x):
            return fmt(x)  # JSON has no nan/inf: encode as string
        return x
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


class ReportBundleWriter:
    """Accumulates report content and writes the bundle under one directory."""

    def __init__(self, outdir):
        self.outdir = pathlib.Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def write_json(self, name: str, document: dict):
        path = self.outdir / name
        path.write_text(json.dumps(_jsonable(document), indent=2, allow_nan=False) + "\n")
        return path

    def write_csv(self, name: str, header: list, columns: list, meta: str):
        """CSV with a `# meta` comment row, a header row, then data rows,
        each value as `fmt` writes it, from one 1-d numpy array or sequence
        per header entry (a numpy bool column prints true/false); the rows
        come from `_csv_body`.  A data value that CSV would quote raises
        ValueError."""
        path = self.outdir / name
        buf = io.StringIO()
        buf.write("# " + meta + "\n")
        csv.writer(buf, lineterminator="\n").writerow(header)
        path.write_bytes(buf.getvalue().encode() + _csv_body(columns))
        return path

    def write_field(self, name: str, grid, values: np.ndarray, binary: bool = False):
        if binary:
            path = self.outdir / (name + ".npy")
            np.save(path, np.asarray(values, dtype=float))
            return path
        return write_grid_dump(self.outdir / (name + ".txt"), grid, values)


def write_grid_dump(path, grid, values: np.ndarray):
    """Self-describing text dump: header with n, m, lo, hi; row-major values
    at 17 significant digits."""
    path = pathlib.Path(path)
    lines = [
        "# hessobs grid function dump",
        f"# n = {grid.n}",
        "# m = " + " ".join(str(v) for v in grid.m),
        "# lo = " + " ".join(repr(float(v)) for v in grid.lo),
        "# hi = " + " ".join(repr(float(v)) for v in grid.hi),
    ]
    flat = np.asarray(values, dtype=float).ravel(order="C")
    path.write_bytes(("\n".join(lines) + "\n").encode() + _g17_lines(flat))
    return path


# values per block of _g17_lines, which bounds its transient arrays (about
# 5.5 MB at a full block)
_BLOCK = 2**14
# 10^(16-e) for e in [-4, 15], exact doubles, split into 26-bit halves for
# Dekker's product (splitter 2^27 + 1)
_SPLITTER = 2.0**27 + 1.0
_SCALE = np.array([float(10**(16 - e)) for e in range(-4, 16)])
_SCALE_HI = _SPLITTER * _SCALE - (_SPLITTER * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# "0000" to "9999" as uint32 words, and the trailing zeros of each
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), dtype=np.uint32)
_TRAILING4 = np.array([4] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 10_000))])
# row masks: _UPTO[k] keeps columns 0..k, _FROM[k] columns k.. of 21
_UPTO = np.arange(25) <= np.arange(25)[:, None]
_FROM = np.arange(21) >= np.arange(17)[:, None]


def _g17_lines(values: np.ndarray) -> bytes:
    """`("%.17g\\n" * N % tuple(values)).encode()` for a flat float64 array,
    formed blockwise with numpy.

    Finite |x| in [1e-4, 1e16) print in fixed notation.  With e =
    floor(log10|x|), n = |x| 10^(16-e) rounded half to even from Dekker's
    exact product holds the 17 digits; log10 may be off by one near a power
    of ten, which puts n outside [10^16, 10^17) and the row in the fallback,
    so the text does not depend on log10's last bit.  The fallback, every
    other row, is `b"%.17g" % x` itself."""
    return b"".join(_g17_block(values[i:i + _BLOCK]) for i in range(0, len(values), _BLOCK))


def _g17_block(x: np.ndarray) -> bytes:
    rows = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 15)
    row = e + 4
    # p + err = a 10^(16-e) exactly (Dekker), then n = round(p + err); p is an
    # even integer whenever n lands in [10^16, 10^17)
    s, sh, sl = _SCALE.take(row), _SCALE_HI.take(row), _SCALE_LO.take(row)
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    p = a * s
    err = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fast &= (n >= 10**16) & (n < 10**17)
    n[~fast] = 10**16
    # the 21 digits of M = n 10^j, j = 4 + min(e, 0), as three 8-digit words:
    # "ddd.ddd" and "0.000ddd" both put the point after ip = max(e, 0) + 1 digits
    j = 10 ** (4 + np.minimum(e, 0))
    ip = np.maximum(e, 0) + 1
    q = n // 10**8
    t = (n - q * 10**8) * j
    w1 = q * j + t // 10**8
    w0 = w1 // 10**8
    words = np.stack([w0, w1 - w0 * 10**8, t % 10**8])
    quads = np.empty((6, rows), dtype=np.intp)
    quads[::2] = words // 10**4
    quads[1::2] = words - quads[::2] * 10**4
    digits = _DIGITS4.take(quads.T).view(np.uint8)[:, 3:]
    # trailing zeros of M, one 4-digit word at a time from the end
    tz = _TRAILING4.take(quads[5])
    zero = quads[5] == 0
    for quad in quads[4:0:-1]:
        tz += zero * _TRAILING4.take(quad)
        zero &= quad == 0
    # one row of text per value: a sign column, the digits with the point
    # placed by one masked copy, and "\n" at column `end`, which cuts off
    # the fraction's trailing zeros (and the point when nothing follows it);
    # a fallback row is its %.17g text, at most 24 characters, from column 0
    buf = np.empty((rows, 25), dtype=np.uint8)
    buf[:, 0] = ord("-")
    buf[:, 1:22] = digits
    np.copyto(buf[:, 2:23], digits, where=_FROM.take(ip, axis=0))
    every = np.arange(rows)
    buf[every, ip + 1] = ord(".")
    end = np.where(tz < 21 - ip, 23 - tz, ip + 1)
    slow = np.flatnonzero(~fast)
    text = b"%-25.17g" * len(slow) % tuple(x[slow].tolist())
    buf[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 25)
    end[slow] = (buf[slow] != ord(" ")).sum(axis=1)
    buf[every, end] = ord("\n")
    keep = _UPTO.take(end, axis=0)
    # the sign column of a fast row holds "-", kept for negative x only
    keep[:, 0] = (x < 0) | ~fast
    return buf[keep].tobytes()
