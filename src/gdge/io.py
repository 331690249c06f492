"""Dataset files and report documents.

Datasets are plain CSV: optional ``#`` comment lines, one header line
(``x`` or ``x,y``), then nonnegative integer rows.  Reports are flat
``key = value`` documents with insertion-ordered keys and fixed float
formatting, so identical runs produce identical bytes.
"""

from __future__ import annotations

import math
import re
from importlib.resources import files

import numpy as np

from .fitting import BivDataset

__all__ = [
    "DataFormatError",
    "read_dataset",
    "write_dataset",
    "format_report",
    "write_report",
    "bundled_data_path",
]


class DataFormatError(ValueError):
    """A dataset file violates the expected format (reported with line number)."""


def bundled_data_path(name: str = "seriea.csv") -> str:
    """Filesystem path of a data file shipped with the package."""
    return str(files("gdge").joinpath("data", name))


#: A decimal integer entry: an optional sign and ASCII digits.  `int` alone would also take
#: ``1_0`` and the digits of other scripts.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_row(parts, lineno, width):
    if len(parts) != width:
        raise DataFormatError(f"line {lineno}: expected {width} column(s), found {len(parts)}")
    out = []
    for cell in parts:
        cell = cell.strip()
        if not _INTEGER.fullmatch(cell):
            raise DataFormatError(f"line {lineno}: non-integer entry {cell!r}")
        value = int(cell)
        if value < 0:
            raise DataFormatError(f"line {lineno}: negative entry {value}")
        out.append(value)
    return out


def read_dataset(path, mode: str = "auto"):
    """Read a dataset file; returns an int64 array (uni) or a `BivDataset` (biv).

    ``mode`` is ``"uni"``, ``"biv"``, or ``"auto"`` (accept either header).
    Comment lines start with ``#``; blank lines are skipped; the first
    remaining line must be the header ``x`` or ``x,y``.  A UTF-8 byte-order
    mark at the start of the file, as spreadsheet programs write one, is
    skipped.
    """
    if mode not in ("uni", "biv", "auto"):
        raise ValueError(f"mode must be 'uni', 'biv', or 'auto', got {mode!r}")
    header = None
    rows = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                cols = [c.strip() for c in line.split(",")]
                if cols == ["x"]:
                    header = "uni"
                elif cols == ["x", "y"]:
                    header = "biv"
                else:
                    raise DataFormatError(
                        f"line {lineno}: header must be 'x' or 'x,y', found {line!r}"
                    )
                if mode != "auto" and header != mode:
                    kinds = {"uni": "univariate", "biv": "bivariate"}
                    raise DataFormatError(
                        f"line {lineno}: file is {kinds[header]} but {kinds[mode]} was requested"
                    )
                width = 1 if header == "uni" else 2
                continue
            rows.append(_parse_row(line.split(","), lineno, width))
    if header is None:
        raise DataFormatError("file has no header line")
    if not rows:
        raise DataFormatError("file has a header but no data rows")
    if header == "uni":
        return np.array([r[0] for r in rows], dtype=np.int64)
    return BivDataset(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
    )


def write_dataset(path, data, comments=()) -> None:
    """Write a dataset in the `read_dataset` format; comments go first.

    ``data`` is a `BivDataset`, an ``(x, y)`` pair of equal-length integer
    sequences, or a single 1-D integer sequence.
    """
    if isinstance(data, BivDataset):
        xs, ys = data.x, data.y
    elif isinstance(data, tuple) and len(data) == 2:
        xs, ys = np.asarray(data[0]), np.asarray(data[1])
        if xs.size != ys.size:
            raise ValueError(f"coordinate lengths differ: {xs.size} vs {ys.size}")
    else:
        xs, ys = np.asarray(data), None
    if ys is None:
        header = "x"
        body = [str(int(v)) for v in xs]
    else:
        header = "x,y"
        body = [f"{int(a)},{int(b)}" for a, b in zip(xs, ys)]
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        return format(v, ".10g")
    return str(value)


def format_report(pairs) -> str:
    """Render ordered (key, value) pairs as a flat key-value document."""
    return "\n".join(f"{key} = {_format_value(value)}" for key, value in pairs) + "\n"


def write_report(pairs, out=None) -> str:
    """Format a report and write it to a path (or return it for stdout use)."""
    text = format_report(pairs)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
