"""CSV/JSON helpers shared by the library and the CLI.

CSV floats are written with 17 significant digits so that parsing the text
back yields the identical double; JSON relies on Python's shortest
round-trip repr, which is also exact.
"""

import csv
import hashlib
import json


def fmt(x) -> str:
    """Format one float with 17 significant digits."""
    return "%.17g" % float(x)


def fmt_row(values) -> list:
    return [v if isinstance(v, str) else fmt(v) for v in values]


def write_csv(path, header, rows):
    """Write a CSV, with a header row unless ``header`` is None; floats at 17 significant digits.

    Row cells may be floats, ints, or pre-formatted strings. Line endings
    are fixed to '\\n' so payloads are byte-identical across platforms.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        if header is not None:
            w.writerow(header)
        for row in rows:
            w.writerow(fmt_row(row))


def write_json(path, obj):
    """Write JSON with sorted keys and a trailing newline (stable bytes)."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
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
