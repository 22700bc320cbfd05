"""File formats: sample CSV, sidecar metadata, deterministic report JSON.

Sample CSV: one row per sample with d+1 comma-separated fields
x_1,...,x_d,y where y is -1 or 1. No header by default; a literal header
row ``x1,...,xd,y`` is accepted on read.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .core import LabeledSampleSet


class CsvFormatError(ValueError):
    """Malformed sample CSV; carries the first offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _is_header(fields: list[str]) -> bool:
    if len(fields) < 2 or fields[-1].strip() != "y":
        return False
    return all(f.strip() == f"x{i + 1}" for i, f in enumerate(fields[:-1]))


def write_samples_csv(path: str | Path, s: LabeledSampleSet,
                      header: bool = False) -> None:
    path = Path(path)
    with path.open("w") as fh:
        if header:
            fh.write(",".join(f"x{i + 1}" for i in range(s.d)) + ",y\n")
        for row, label in zip(s.points, s.labels):
            fh.write(",".join(repr(float(v)) for v in row)
                     + f",{int(label)}\n")


def read_samples_csv(path: str | Path) -> LabeledSampleSet:
    """Parse a sample CSV; raises CsvFormatError naming the first bad line.

    One ``np.loadtxt`` pass reads a well-formed file. A file it refuses,
    or whose table ``LabeledSampleSet`` refuses, goes to the row-by-row
    parser, which accepts whatever ``float()`` accepts (``1_0``, say) and
    names the first bad line.
    """
    path = Path(path)
    with path.open("r") as fh:
        first = fh.readline().strip()
        header = _is_header(first.split(","))
        # loadtxt warns on a file without rows; only the row parser sees one.
        has_rows = (bool(first) and not header) or any(
            line.strip() for line in fh)
    if has_rows:
        try:
            table = np.loadtxt(path, dtype=np.float64, delimiter=",",
                               comments=None, skiprows=int(header), ndmin=2)
        except ValueError:
            return _read_rows(path)
        if table.shape[1] >= 3:
            try:
                return LabeledSampleSet(table[:, :-1], table[:, -1])
            except ValueError:
                pass
    return _read_rows(path)


def _read_rows(path: Path) -> LabeledSampleSet:
    """Row-by-row parser: blank lines and a header on line 1 are skipped."""
    points: list[list[float]] = []
    labels: list[int] = []
    d: int | None = None
    with path.open("r") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if line_number == 1 and _is_header(fields):
                continue
            if d is None:
                if len(fields) < 3:
                    raise CsvFormatError(line_number,
                                         "need at least two coordinates "
                                         "and a label")
                d = len(fields) - 1
            if len(fields) != d + 1:
                raise CsvFormatError(line_number,
                                     f"expected {d + 1} fields, "
                                     f"got {len(fields)}")
            try:
                coords = [float(f) for f in fields[:-1]]
                label = float(fields[-1])
            except ValueError:
                raise CsvFormatError(line_number, "non-numeric field") from None
            if label not in (-1.0, 1.0):
                raise CsvFormatError(line_number,
                                     f"label must be -1 or 1, got {fields[-1]}")
            # float() accepts nan, inf and overflows such as 1e999.
            if not all(map(math.isfinite, coords)):
                raise CsvFormatError(line_number, "non-finite field")
            points.append(coords)
            labels.append(int(label))
    if not points:
        raise CsvFormatError(1, "no samples in file")
    return LabeledSampleSet(np.asarray(points, dtype=np.float64),
                            np.asarray(labels, dtype=np.int64))


def json_dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json_dumps(obj))


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
