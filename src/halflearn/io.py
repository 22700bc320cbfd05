"""File formats: sample CSV, sidecar metadata, deterministic report JSON.

Sample CSV: one row per sample with d+1 comma-separated fields
x_1,...,x_d,y where y is -1 or 1. No header by default; a literal header
row ``x1,...,xd,y`` is accepted on read.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np

from .core import LabeledSampleSet

# Smallest byte range a worker process reads; a file under twice this is
# one range, read without forking.
_MIN_RANGE_BYTES = 4 << 20
# Rows formatted per block by write_samples_csv.
_WRITE_ROWS = 1 << 16


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
    """Shortest round-trip ``repr`` of every coordinate, formatted a column
    at a time over blocks of ``_WRITE_ROWS`` rows, which bounds the Python
    floats alive at once."""
    path = Path(path)
    with path.open("w") as fh:
        if header:
            fh.write(",".join(f"x{i + 1}" for i in range(s.d)) + ",y\n")
        for lo in range(0, s.n, _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            columns = [map(repr, column)
                       for column in s.points[lo:hi].T.tolist()]
            fh.writelines(",".join(row) + "\n" for row in
                          zip(*columns, map(str, s.labels[lo:hi].tolist())))


def read_samples_csv(path: str | Path) -> LabeledSampleSet:
    """Parse a sample CSV; raises CsvFormatError naming the first bad line.

    A well-formed file is cut into byte ranges just after a newline, one
    per CPU but none smaller than ``_MIN_RANGE_BYTES``. ``np.loadtxt``
    reads range 0 here and the others in forked workers, and the rows are
    joined in file order, so the result does not depend on the CPU count.
    A file that ``np.loadtxt`` refuses, whose ranges differ in width, or
    whose table ``LabeledSampleSet`` refuses, goes to the row-by-row
    parser, which accepts whatever ``float()`` accepts (``1_0``, say) and
    names the first bad line.
    """
    path = Path(path)
    # A byte that is not text fails loadtxt (UnicodeDecodeError is a
    # ValueError), and the row parser names its line.
    with path.open("r", errors="replace") as fh:
        header = _is_header(fh.readline().split(","))
    try:
        # A range of blank lines has no rows, and loadtxt gives it width 1.
        tables = [table for table in _parse_ranges(path, int(header))
                  if len(table)]
        widths = {table.shape[1] for table in tables}
        if len(widths) == 1:
            return _join(tables)
    except ValueError:
        pass
    return _read_rows(path)


def _parse_ranges(path: Path, skiprows: int) -> list[np.ndarray]:
    """One ``np.loadtxt`` table per byte range, in file order.

    Workers are forked, not spawned: a spawned one would spend about
    0.15 s importing NumPy. A worker runs only ``loadtxt`` and sends its
    table back, so the threads a fork leaves behind (OpenBLAS's) are
    never needed. Workers are plain processes, not a
    ``ProcessPoolExecutor``, whose helper threads wait here for the GIL
    that ``loadtxt`` holds; on a 2-core VM that held a worker's start
    back by up to 0.3 s. A daemonic process, such as a
    ``multiprocessing.Pool`` worker, may not have children, so it reads
    the file as one range. A worker's table crosses the pipe as raw bytes,
    not as a pickle, which would be copied once on each side.
    """
    size = path.stat().st_size
    count = 1
    if ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
            and hasattr(os, "sched_getaffinity")):
        count = max(1, min(len(os.sched_getaffinity(0)),
                           size // _MIN_RANGE_BYTES))
    starts = [0]
    with path.open("rb") as fh:
        for i in range(1, count):
            # Every newline ends a line, alone or as the end of a CRLF.
            fh.seek(max(size * i // count, starts[-1]))
            while (chunk := fh.readline(1 << 16)) and chunk[-1:] != b"\n":
                pass
            starts.append(fh.tell())
    # A 0-byte file is one empty range.
    ranges = [(start, end) for start, end in zip(starts, starts[1:] + [size])
              if start < end] or [(0, 0)]
    workers = []
    try:
        for start, end in ranges[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.get_context("fork").Process(
                target=_send_range, args=(sender, path, start, end))
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        tables = [_parse_range(path, *ranges[0], skiprows)]
        for _, receiver in workers:
            shape = receiver.recv()
            if isinstance(shape, Exception):
                raise shape
            tables.append(np.empty(shape))
            receiver.recv_bytes_into(_flat_bytes(tables[-1]))
        return tables
    finally:
        # Stops the workers still parsing when a range was refused.
        for worker, receiver in workers:
            receiver.close()
            worker.terminate()
            worker.join()


def _send_range(sender, path: Path, start: int, end: int) -> None:
    """Worker: send the range's table as its shape and then its raw bytes,
    which the reader receives straight into an array of that shape, or
    send the exception that stopped it."""
    try:
        table = _parse_range(path, start, end, 0)
    except Exception as exc:
        sender.send(exc)
        return
    sender.send(table.shape)
    sender.send_bytes(_flat_bytes(table))


def _flat_bytes(table: np.ndarray) -> np.ndarray:
    """A contiguous table as a flat byte view: a ``Connection`` takes an
    array's len() along its first axis only, and a memoryview with a zero
    in its shape cannot be cast to bytes."""
    return table.reshape(-1).view(np.uint8)


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of a file as a raw stream."""

    def __init__(self, fh, start: int, end: int):
        fh.seek(start)
        self._fh, self._left = fh, end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            count = self._fh.readinto(view[:self._left])
        self._left -= count
        return count


def _parse_range(path: Path, start: int, end: int,
                 skiprows: int) -> np.ndarray:
    """``np.loadtxt`` on bytes [start, end) of the file, decoded with the
    encoding and universal newlines that ``np.loadtxt(path)`` uses."""
    with path.open("rb", buffering=0) as fh, \
            io.TextIOWrapper(_ByteRange(fh, start, end)) as text, \
            warnings.catch_warnings():
        # A range of blank lines adds no rows; it is no error.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(text, dtype=np.float64, delimiter=",",
                          comments=None, skiprows=skiprows, ndmin=2)


def _join(tables: list[np.ndarray]) -> LabeledSampleSet:
    """Points and labels in table order; each table is popped from
    ``tables``, and so freed, once its rows are copied."""
    n = sum(len(table) for table in tables)
    points = np.empty((n, tables[0].shape[1] - 1))
    labels = np.empty(n)
    row = 0
    while tables:
        table = tables.pop(0)
        points[row:row + len(table)] = table[:, :-1]
        labels[row:row + len(table)] = table[:, -1]
        row += len(table)
        del table
    return LabeledSampleSet(points, labels)


def _read_rows(path: Path) -> LabeledSampleSet:
    """Row-by-row parser: blank lines and a header on line 1 are skipped.
    A byte that is not text makes its field non-numeric."""
    points: list[list[float]] = []
    labels: list[int] = []
    d: int | None = None
    with path.open("r", errors="surrogateescape") as fh:
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
    return LabeledSampleSet(points, labels)


def json_dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
