"""CSV/JSON serialization: payload text that parses back to the same values."""

import csv

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.serialize import write_csv

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
