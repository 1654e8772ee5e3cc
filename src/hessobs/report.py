"""Deterministic report emission: JSON document, CSV tables, grid dumps.

Identical run configuration and seed must produce byte-identical files, so
everything here avoids timestamps, ids and set iteration; floats are written
with repr (shortest round-trip decimal).
"""

from __future__ import annotations

import csv
import io
import itertools
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


# the types whose str is their fmt
_PLAIN = frozenset((int, float))


def _csv_text(v) -> str:
    text = fmt(v)
    if any(c in text for c in ',"\r\n'):
        raise ValueError(f"CSV value {text!r} would need quoting")
    return text


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
        with open(path, "w") as f:
            json.dump(_jsonable(document), f, indent=2, allow_nan=False)
            f.write("\n")
        return path

    def write_csv(self, name: str, columns: list, rows: list, meta: str):
        """CSV with a `# meta` comment row, a header row, then data rows,
        each value as `fmt` writes it.  The data rows are one %-format of
        the table, column by column: %s of a Python int or float is its
        fmt, a column of bools maps to true/false, and any other column
        goes through fmt first.  A data value that CSV would quote raises
        ValueError."""
        path = self.outdir / name
        buf = io.StringIO()
        buf.write("# " + meta + "\n")
        csv.writer(buf, lineterminator="\n").writerow(columns)
        cols = list(zip(*rows))
        for j, col in enumerate(cols):
            kinds = set(map(type, col))
            if kinds == {bool}:
                cols[j] = map(("false", "true").__getitem__, col)
            elif not kinds <= _PLAIN:
                cols[j] = map(_csv_text, col)
        values = tuple(itertools.chain.from_iterable(zip(*cols)))
        buf.write(("%s," * (len(columns) - 1) + "%s\n") * len(rows) % values)
        path.write_text(buf.getvalue())
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
    flat = np.asarray(values, dtype=float).ravel(order="C").tolist()
    # one %-format of the whole field: the same text as "%.17g" per value
    path.write_text("\n".join(lines) + "\n" + "%.17g\n" * len(flat) % tuple(flat))
    return path

