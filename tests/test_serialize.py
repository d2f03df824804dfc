"""CSV/JSON serialization: payload text that parses back to the same values; table layouts."""

import csv
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.serialize import table, write_csv, write_json

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

    def test_structured_arrays(self, tmp_path):
        """Tuples, one structured array and the same rows over several arrays write one text.

        The header is the dtype's names, rows cross the chunk of 128 rows that becomes Python
        values at once, and len holds before and after a write; no rows write the header alone.
        """
        kind = np.dtype([("trial", np.int64), ("loss_kind", "U6"), ("ratio", float)])
        cells = [(i, "ce-opt" if i % 3 else "dr", -0.0 if i == 1 else 1.0 / (i + 3))
                 for i in range(300)]
        whole = np.array(cells, dtype=kind)
        texts = []
        for header, rows in ((list(kind.names), cells), table(kind, [whole]),
                             table(kind, [whole[:1], whole[1:1], whole[1:129], whole[129:]])):
            assert len(rows) == 300
            write_csv(tmp_path / "t.csv", header, rows)
            assert len(rows) == 300
            texts.append((tmp_path / "t.csv").read_bytes())
        assert texts[0].startswith(
            b"trial,loss_kind,ratio\n0,dr,0.33333333333333331\n1,ce-opt,-0\n")
        assert texts[1] == texts[0] and texts[2] == texts[0]
        for arrays in ([], [whole[:0]], [whole[:0], whole[5:5]]):
            header, rows = table(kind, arrays)
            assert len(rows) == 0
            write_csv(tmp_path / "t.csv", header, rows)
            assert (tmp_path / "t.csv").read_text() == "trial,loss_kind,ratio\n"

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


def as_lists(obj):
    """``obj`` with each numpy array or scalar replaced by its ``tolist()``, as payloads were built."""
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    return obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj


class TestWriteJson:
    """Arrays and numpy scalars write the bytes of their tolist(); refusals are unchanged."""

    def same_bytes(self, path, payload):
        write_json(path, payload)
        from_arrays = path.read_bytes()
        write_json(path, as_lists(payload))
        assert from_arrays == path.read_bytes()
        return from_arrays

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES),
                    min_size=1, max_size=12),
           st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=6),
           st.integers(1, 4))
    def test_arrays_write_their_tolist_bytes(self, tmp_path_factory, values, ints, width):
        floats, ints = np.array(values), np.array(ints, dtype=np.int64)
        payload = {
            "features": floats[: len(floats) // width * width].reshape(-1, width),  # 0 rows too
            "nested": [floats, {"labels": ints, "column": ints[:, None], "cube": floats[:, None, None]}],
            "scalars": [np.float64(values[0]), np.int64(ints[0]), np.bool_(True), 7, "text"],
        }
        self.same_bytes(tmp_path_factory.mktemp("json") / "p.json", payload)

    def test_edges_and_layout(self, tmp_path):
        payload = {"w": [np.array([[-0.0, 5e-324], [1.7976931348623157e308, 1.0]])],
                   "n": np.array([3, -1]), "empty": np.zeros((0, 2))}
        text = self.same_bytes(tmp_path / "p.json", payload).decode()
        assert json.loads(text)["w"][0] == [[-0.0, 5e-324], [1.7976931348623157e308, 1.0]]
        assert text.startswith('{\n  "empty": [],\n  "n": [\n    3,\n    -1\n  ],\n  "w": [\n')

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_entry_refused(self, tmp_path, bad):
        for payload in (np.array([[1.0, bad]]), {"x": np.array([bad])}, [np.float64(bad)]):
            with pytest.raises(ValueError, match="Out of range float values"):
                write_json(tmp_path / "p.json", payload)

    @pytest.mark.parametrize("obj,name", [({1, 2}, "set"), (object(), "object"),
                                          (np.complex128(1j), "complex")])
    def test_unsupported_object_refused(self, tmp_path, obj, name):
        with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
            write_json(tmp_path / "p.json", {"x": [obj]})
