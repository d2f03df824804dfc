"""CSV/JSON serialization: payload text that parses back to the same values; table layouts."""

import csv
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.serialize import table, write_csv

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.finfo(float).max,
         -np.finfo(float).max, np.finfo(float).tiny, 0.1, 1.0 / 3.0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES),
                min_size=1, max_size=8))
def test_csv_floats_round_trip_bit_for_bit(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    write_csv(path, [f"c{i}" for i in range(len(values))], [values])
    with open(path, newline="") as f:
        _, row = list(csv.reader(f))
    back = np.array([float(v) for v in row])
    assert back.tobytes() == np.array(values, dtype=float).tobytes()  # keeps the sign of -0.0


@dataclass(frozen=True)
class Panel:
    avg: float
    std: float


@dataclass(frozen=True)
class Record:
    step: int
    kind: str
    rate: float
    dist: np.ndarray
    train: Panel


@dataclass(frozen=True)
class One:
    x: object


class TestTable:
    """``table``: one column per dataclass field, arrays and nested dataclasses spread."""

    def test_no_records_give_the_fields_of_cls(self):
        assert table(Record, []) == (["step", "kind", "rate", "dist", "train"], [])

    def test_array_and_nested_fields_spread(self):
        records = [Record(0, "ce", 0.5, np.array([1.0, 2.0, 3.0]), Panel(4.0, 5.0)),
                   Record(1, "dr", 0.25, np.array([6.0, 7.0, 8.0]), Panel(9.0, 10.0))]
        header, rows = table(Record, records)
        assert header == ["step", "kind", "rate", "dist_0", "dist_1", "dist_2",
                          "train_avg", "train_std"]
        assert [list(r) for r in list(rows)] == [[0, "ce", 0.5, 1.0, 2.0, 3.0, 4.0, 5.0],
                                                 [1, "dr", 0.25, 6.0, 7.0, 8.0, 9.0, 10.0]]

    def test_str_and_numpy_scalar_stay_one_column(self):
        """A str has a length and an np.float64 a size of 1; each is still one cell."""
        header, rows = table(Panel, [Panel("ce-opt", np.float64(0.5))])
        assert header == ["avg", "std"]
        assert [list(r) for r in list(rows)] == [["ce-opt", 0.5]]

    @pytest.mark.parametrize("value,header,row", [
        (1.5, ["x"], [1.5]),
        (np.array([1.0, 2.0]), ["x_0", "x_1"], [1.0, 2.0]),
        (Panel(1.0, 2.0), ["x_avg", "x_std"], [1.0, 2.0]),
    ])
    def test_one_field(self, value, header, row):
        got_header, rows = table(One, [One(value)])
        assert got_header == header and [list(r) for r in rows] == [row]

    def test_rows_are_a_sized_view(self, tmp_path):
        """A view, a list and a 2-D array of the same cells write the same bytes; len holds."""
        records = [Panel(0.1 * i, -1.0 / (i + 3)) for i in range(5)]
        header, rows = table(Panel, records)
        cells = [[r.avg, r.std] for r in records]
        texts = []
        for form in (cells, rows, np.array(cells)):
            write_csv(tmp_path / "t.csv", header, form)
            texts.append((tmp_path / "t.csv").read_bytes())
            assert len(rows) == len(records)
        assert texts[0].startswith(b"avg,std\n0,-0.33333333333333331\n") and len(texts[0]) > 100
        assert texts[1] == texts[0] and texts[2] == texts[0]
        write_csv(tmp_path / "t.csv", *table(Panel, []))
        assert (tmp_path / "t.csv").read_text() == "avg,std\n"

    def test_written_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, *table(Record, [Record(3, "ce", 0.1, np.array([0.5]), Panel(1.0, 2.0))]))
        assert path.read_text() == ("step,kind,rate,dist_0,train_avg,train_std\n"
                                    "3,ce,0.10000000000000001,0.5,1,2\n")
        write_csv(path, None, np.array([[0.5, -0.0], [1.0 / 3.0, 2.0]]))  # frame.csv's form
        assert path.read_text() == "0.5,-0\n0.33333333333333331,2\n"
        write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"
        write_csv(path, ["ok", "x", "z"], [[True, np.nan, -0.0], [np.False_, 1.0, 0.0]])
        assert path.read_text() == "ok,x,z\n1,nan,-0\n0,1,0\n"
