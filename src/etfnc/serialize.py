"""CSV/JSON helpers shared by the library and the CLI.

CSV floats are written with 17 significant digits so that parsing the text
back yields the identical double; JSON relies on Python's shortest
round-trip repr, which is also exact.
"""

import hashlib
import json
from dataclasses import fields, is_dataclass
from operator import attrgetter

import numpy as np

CHUNK_ROWS = 128  # rows of a structured array that table converts to Python values at once


def write_csv(path, header, rows):
    """Write a CSV, with a header row unless ``header`` is None; floats at 17 significant digits.

    ``rows`` is read once, in order: a list, a ``table`` view or a 2-D array.
    Row cells may be floats, ints, bools or strings; each column takes its
    format from the first row read, and no cell is quoted. Line endings are
    fixed to '\\n' so payloads are byte-identical across platforms.
    """
    with open(path, "w", newline="") as f:
        if header is not None:
            f.write(",".join(header) + "\n")
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
            f.write(line % tuple(first))
            f.writelines(line % tuple(r) for r in rows)


def _columns(name, path, value):
    """[(column names, attribute path, spread)] of one field holding ``value``."""
    if is_dataclass(value):
        return [c for f in fields(value)
                for c in _columns(f"{name}_{f.name}", f"{path}.{f.name}", getattr(value, f.name))]
    if np.ndim(value):  # a str or np.float64 has ndim 0: one column
        return [([f"{name}_{k}" for k in range(len(value))], path, True)]
    return [([name], path, False)]


class _Rows:
    """``count`` CSV rows, built by ``rows()`` a few at a time each time they are read."""

    def __init__(self, count, rows):
        self._count, self._rows = count, rows

    def __len__(self):
        return self._count

    def __iter__(self):
        return self._rows()


def table(cls, records) -> tuple:
    """(header, rows) of a CSV with one column per field of ``cls``, in field order.

    ``cls`` is a dataclass and ``records`` its instances, or a structured dtype and ``records``
    arrays of it. A nested dataclass field ``f`` spreads over ``f_<its field>`` columns and an
    array field over ``f_0 ... f_{n-1}``, its width taken from the first record. With no records
    the header is the field names of ``cls``. The rows are a view of ``records``, sized by their
    count, that builds rows as they are read, CHUNK_ROWS rows of an array at a time.
    """
    if isinstance(cls, np.dtype):
        return list(cls.names), _Rows(sum(map(len, records)), lambda: (
            row for a in records for i in range(0, len(a), CHUNK_ROWS)
            for row in a[i:i + CHUNK_ROWS].tolist()))
    if not records:
        return [f.name for f in fields(cls)], []
    plan = [c for f in fields(cls) for c in _columns(f.name, f.name, getattr(records[0], f.name))]
    header = [name for names, _, _ in plan for name in names]
    paths, spread = [path for _, path, _ in plan], [s for _, _, s in plan]
    # attrgetter of one path returns the value, of more a tuple
    get = attrgetter(*paths) if len(paths) > 1 else lambda r, one=attrgetter(*paths): (one(r),)
    if not any(spread):
        return header, _Rows(len(records), lambda: map(get, records))
    return header, _Rows(len(records), lambda: ([c for v, s in zip(get(r), spread)
                                                 for c in (v if s else (v,))] for r in records))


def _numpy_value(o):
    """A numpy value as json.dump writes it; an array of ndim > 1 goes one row at a time."""
    if isinstance(o, np.ndarray) and o.ndim > 1:
        return list(o)
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def write_json(path, obj):
    """Write JSON with sorted keys and a trailing newline (stable bytes).

    A numpy value writes as its ``tolist()``. NaN or infinity raises ValueError, never ``Infinity``.
    """
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False, default=_numpy_value)
        f.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def derive_seed(master: int, name: str) -> int:
    """Fan a master seed out to a component sub-seed.

    Sub-seed = first 8 bytes of sha256("<master>:<name>") mod 2^63, so
    components stay decorrelated but reproducible from one master seed.
    """
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)
