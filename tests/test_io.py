import contextlib
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from halflearn import LabeledSampleSet, io
from halflearn.io import (CsvFormatError, file_sha256, json_dumps,
                          read_samples_csv, write_samples_csv)

from conftest import stdout_with_blas_threads

FLOAT_MAX = float(np.finfo(np.float64).max)


def sample_set(rng, n=50, d=3):
    return LabeledSampleSet(rng.standard_normal((n, d)),
                            rng.choice([-1, 1], size=n))


@st.composite
def sample_sets(draw):
    """Any finite float64 points (subnormals, signed zeros, +-max
    included), d in [2, 12], labels in {-1, 1}."""
    d = draw(st.integers(2, 12))
    n = draw(st.integers(1, 8))
    points = draw(arrays(np.float64, (n, d),
                         elements=st.floats(allow_nan=False,
                                            allow_infinity=False)))
    labels = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    return LabeledSampleSet(points, labels)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "samples.csv"


def same_bytes(a: LabeledSampleSet, b: LabeledSampleSet) -> bool:
    return (a.points.tobytes() == b.points.tobytes()
            and a.labels.tobytes() == b.labels.tobytes())


@contextlib.contextmanager
def in_ranges(cpus=4, min_bytes=16):
    """Reads files as up to ``cpus`` byte ranges of at least ``min_bytes``;
    yields the list of range counts of the reads that parsed every range."""
    counts = []
    parse_ranges = io._parse_ranges

    def spy(*args):
        tables = parse_ranges(*args)
        counts.append(len(tables))
        return tables

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_MIN_RANGE_BYTES", min_bytes)
        patch.setattr(os, "sched_getaffinity",
                      lambda pid: set(range(cpus)))
        patch.setattr(io, "_parse_ranges", spy)
        yield counts


def per_row_csv(s: LabeledSampleSet, header: bool) -> str:
    """Reference formatter: one ``repr`` per value, one row at a time."""
    lines = [",".join(f"x{i + 1}" for i in range(s.d)) + ",y"] * header
    lines += [",".join(repr(float(v)) for v in row) + f",{int(label)}"
              for row, label in zip(s.points, s.labels)]
    return "".join(line + "\n" for line in lines)


def read_bytes(path) -> tuple[bytes, bytes]:
    s = read_samples_csv(path)
    return s.points.tobytes(), s.labels.tobytes()


class TestCsvRoundTrip:
    def test_exact_round_trip(self, rng, tmp_path):
        s = sample_set(rng)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s)
        back = read_samples_csv(path)
        assert np.array_equal(back.points, s.points)
        assert np.array_equal(back.labels, s.labels)

    def test_header_row_accepted(self, rng, tmp_path):
        s = sample_set(rng, n=10)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s, header=True)
        assert path.read_text().startswith("x1,x2,x3,y\n")
        back = read_samples_csv(path)
        assert back.n == 10

    def test_plus_one_label_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,2.0,1\n-1.0,0.5,-1\n")
        back = read_samples_csv(path)
        assert list(back.labels) == [1, -1]

    @given(s=sample_sets(), header=st.booleans())
    @example(s=LabeledSampleSet(
        np.array([[5e-324, -0.0], [FLOAT_MAX, -FLOAT_MAX],
                  [0.0, -2.2250738585072014e-308]]), np.array([1, -1, 1])),
        header=False)
    def test_bit_exact_round_trip(self, csv_path, s, header):
        write_samples_csv(csv_path, s, header=header)
        assert same_bytes(read_samples_csv(csv_path), s)
        assert same_bytes(io._read_rows(csv_path), s)

    @given(s=sample_sets(), header=st.booleans())
    def test_writer_matches_per_row_formatter(self, csv_path, s, header):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io, "_WRITE_ROWS", 3)
            write_samples_csv(csv_path, s, header=header)
        assert csv_path.read_text() == per_row_csv(s, header)

    def test_float_syntax_outside_loadtxt_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1_0,2.0,1\n-1.0,0.5,-1\n")
        back = read_samples_csv(path)
        assert back.points.tolist() == [[10.0, 2.0], [-1.0, 0.5]]

    def test_loadtxt_and_row_parser_agree(self, rng, tmp_path, monkeypatch):
        s = sample_set(rng, n=200, d=4)
        path = tmp_path / "s.csv"
        write_samples_csv(path, s, header=True)
        lines = path.read_text().splitlines()
        lines.insert(50, "")
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        with monkeypatch.context() as patch:
            patch.setattr(io, "_read_rows", refuse)
            fast = read_samples_csv(path)
        monkeypatch.setattr(np, "loadtxt", refuse)
        rows = read_samples_csv(path)
        assert same_bytes(fast, s)
        assert same_bytes(rows, s)


@pytest.fixture(scope="module")
def long_csv_text(tmp_path_factory):
    """A header and 100,000 good rows at d=3."""
    rng = np.random.default_rng(99)
    path = tmp_path_factory.mktemp("long") / "good.csv"
    write_samples_csv(path, sample_set(rng, n=100_000, d=3), header=True)
    return path.read_text()


class TestCsvErrors:
    def test_bad_line_number_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,2.0,1\n0.5,0.5,1\n0.1,oops,1\n")
        with pytest.raises(CsvFormatError) as excinfo:
            read_samples_csv(path)
        assert excinfo.value.line_number == 3

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,2.0,1\n0.5,1\n")
        with pytest.raises(CsvFormatError) as excinfo:
            read_samples_csv(path)
        assert excinfo.value.line_number == 2

    def test_one_coordinate_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,1\n2.0,-1\n")
        with pytest.raises(CsvFormatError, match="two coordinates") as excinfo:
            read_samples_csv(path)
        assert excinfo.value.line_number == 1

    def test_label_outside_domain(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,2.0,0\n")
        with pytest.raises(CsvFormatError) as excinfo:
            read_samples_csv(path)
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_field(self, tmp_path, field):
        path = tmp_path / "s.csv"
        path.write_text(f"x1,x2,y\n1.0,2.0,1\n\n0.5,{field},-1\n")
        with pytest.raises(CsvFormatError, match="non-finite") as excinfo:
            read_samples_csv(path)
        assert excinfo.value.line_number == 4

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("data, line", [
        pytest.param(b"1.0,2.0,1\n0.5,\xff,1\n", 2, id="row"),
        pytest.param(b"x1,x\xff,y\n1.0,2.0,1\n", 1, id="header"),
    ])
    def test_non_utf8_byte_names_its_line(self, tmp_path, data, line, cpus):
        # Two CPUs read the second line in a worker.
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with in_ranges(cpus=cpus, min_bytes=8), \
                pytest.raises(CsvFormatError) as excinfo:
            read_samples_csv(path)
        assert str(excinfo.value) == f"line {line}: non-numeric field"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        for text in ["", "x1,x2,y\n", "\n  \n"]:
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CsvFormatError, match="no samples"):
                    read_samples_csv(path)

    def test_first_bad_line_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,2.0,1\n1.0,nan,1\n1.0,2.0,5\n")
        with pytest.raises(CsvFormatError, match="non-finite") as excinfo:
            read_samples_csv(path)
        assert excinfo.value.line_number == 2

    @given(s=sample_sets(), header=st.booleans(), data=st.data())
    def test_non_finite_row_names_its_line(self, csv_path, s, header, data):
        write_samples_csv(csv_path, s, header=header)
        lines = csv_path.read_text().splitlines()
        row = data.draw(st.integers(0, s.n - 1))
        column = data.draw(st.integers(0, s.d))
        fields = lines[header + row].split(",")
        fields[column] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[header + row] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError) as excinfo:
            read_samples_csv(csv_path)
        assert excinfo.value.line_number == header + row + 1

    @pytest.mark.parametrize("last, message", [
        ("0.5,0.5,0.5,0", "label must be -1 or 1, got 0"),
        ("0.5,inf,0.5,1", "non-finite field"),
        ("0.5,0.5,0.5,1,1", "expected 4 fields, got 5"),
    ])
    def test_bad_last_line_of_long_file(self, long_csv_text, tmp_path, last,
                                        message):
        path = tmp_path / "s.csv"
        path.write_text(long_csv_text + last + "\n")
        with pytest.raises(CsvFormatError) as excinfo:
            read_samples_csv(path)
        assert str(excinfo.value) == f"line 100002: {message}"


class TestByteRanges:
    @given(s=sample_sets(), header=st.booleans())
    @example(s=LabeledSampleSet(
        np.array([[5e-324, -0.0], [FLOAT_MAX, -FLOAT_MAX],
                  [0.0, -2.2250738585072014e-308]]), np.array([1, -1, 1])),
        header=False)
    def test_same_bytes_as_one_range(self, csv_path, s, header):
        write_samples_csv(csv_path, s, header=header)
        one = read_samples_csv(csv_path)
        with in_ranges(cpus=64, min_bytes=1) as counts:
            assert same_bytes(read_samples_csv(csv_path), one)
        assert same_bytes(one, s)
        assert counts[0] >= min(3, s.n + header)

    @pytest.mark.parametrize("layout", [
        "header", "crlf", "blank-after-every-row", "no-final-newline", "cr",
        "blank-range"])
    def test_line_layouts(self, rng, tmp_path, monkeypatch, layout):
        s = sample_set(rng, n=40, d=3)
        path = tmp_path / "s.csv"
        write_samples_csv(path, s, header=layout == "header")
        text = path.read_text()
        if layout == "crlf":
            text = text.replace("\n", "\r\n")
        elif layout == "blank-after-every-row":
            text = text.replace("\n", "\n\n")
        elif layout == "no-final-newline":
            text = text.rstrip("\n")
        elif layout == "cr":
            text = text.replace("\n", "\r")
        elif layout == "blank-range":
            lines = text.splitlines(keepends=True)
            text = "".join(lines[:20]) + "\n" * len(text) + "".join(lines[20:])
        path.write_bytes(text.encode())
        one = read_samples_csv(path)

        def refuse(path):
            raise AssertionError("the ranges alone read a well-formed file")

        monkeypatch.setattr(io, "_read_rows", refuse)
        with in_ranges() as counts, warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bytes(read_samples_csv(path), one)
        assert same_bytes(one, s)
        # Without a newline the file cannot be cut.
        assert (counts == [1]) if layout == "cr" else (counts[0] >= 3)

    @pytest.mark.parametrize("last, message", [
        ("0.5,oops,0.5,1", "non-numeric field"),
        ("0.5,inf,0.5,1", "non-finite field"),
        ("0.5,0.5,0.5,0", "label must be -1 or 1, got 0"),
    ])
    def test_bad_last_range_names_its_line(self, rng, tmp_path, last,
                                           message):
        path = tmp_path / "s.csv"
        write_samples_csv(path, sample_set(rng, n=300, d=3), header=True)
        path.write_text(path.read_text() + last + "\n")
        with pytest.raises(CsvFormatError) as one:
            read_samples_csv(path)
        with in_ranges(), pytest.raises(CsvFormatError) as ranged:
            read_samples_csv(path)
        assert str(one.value) == f"line 302: {message}"
        assert str(ranged.value) == str(one.value)

    @pytest.mark.parametrize("text, message", [
        ("1.0,2.0,1\n" * 50 + "1.0,2.0,3.0,1\n" * 35,
         "line 51: expected 3 fields, got 4"),
        ("1.0,2.0,3.0,1\n" * 50 + "1.0,1\n" * 114,
         "line 51: expected 4 fields, got 2"),
    ])
    def test_ranges_of_different_widths_go_to_the_row_parser(
            self, tmp_path, text, message):
        # The cut lands in row 50, so each range is one width.
        path = tmp_path / "s.csv"
        path.write_text(text)
        with in_ranges(cpus=2) as counts, \
                pytest.raises(CsvFormatError) as excinfo:
            read_samples_csv(path)
        assert counts == [2]
        assert str(excinfo.value) == message

    def test_worker_error_other_than_value_error_propagates(
            self, rng, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        write_samples_csv(path, sample_set(rng, n=40, d=3))
        parse_range = io._parse_range

        def fail_past_range_0(path, start, end, skiprows):
            if start:
                raise OSError("device gone")
            return parse_range(path, start, end, skiprows)

        monkeypatch.setattr(io, "_parse_range", fail_past_range_0)
        with in_ranges(), pytest.raises(OSError, match="device gone"):
            read_samples_csv(path)

    def test_read_in_a_daemonic_pool_worker(self, rng, tmp_path):
        path = tmp_path / "s.csv"
        s = sample_set(rng, n=200, d=3)
        write_samples_csv(path, s)
        # Forked, so the daemonic worker keeps the patched range settings.
        with in_ranges(), multiprocessing.get_context("fork").Pool(1) as pool:
            points, labels = pool.apply_async(read_bytes, (path,)).get(60)
        assert (points, labels) == (s.points.tobytes(), s.labels.tobytes())

    def test_import_halflearn_loads_neither_io_nor_a_process_pool(self):
        script = ("import sys, halflearn; print(sorted(name for name in "
                  "('halflearn.io', 'concurrent.futures', 'multiprocessing') "
                  "if name in sys.modules))")
        assert stdout_with_blas_threads(script, 1) == b"[]\n"


class TestJson:
    def test_canonical_ordering(self):
        assert json_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_sha256_stable(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"abc")
        assert file_sha256(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
