import numpy as np
import pytest

from halflearn import LabeledSampleSet
from halflearn.io import (CsvFormatError, file_sha256, json_dumps,
                          read_samples_csv, write_samples_csv)


def sample_set(rng, n=50, d=3):
    return LabeledSampleSet(rng.standard_normal((n, d)),
                            rng.choice([-1, 1], size=n))


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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            read_samples_csv(path)


class TestJson:
    def test_canonical_ordering(self):
        assert json_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_sha256_stable(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"abc")
        assert file_sha256(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
