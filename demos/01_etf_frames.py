"""Simplex equiangular tight frames: construction, structure, serialization.

A simplex ETF packs K unit vectors into R^d (d >= K-1) at the widest
possible common angle, cos = -1/(K-1). This script builds frames across
dimensions, checks their Gram structure, shows the minimal-dimension
d = K-1 case (the regular simplex), and round-trips a frame through
JSON.
"""

import json

import numpy as np

from etfnc.etf import (frame_from_json_dict, frame_to_json_dict, generate_etf, scale_classifier,
                       verify_etf)

np.set_printoptions(precision=4, suppress=True)

print("=== A frame in generous dimension: d=6, K=4 ===")
frame = generate_etf(6, 4, seed=1)
print("columns (d x K):")
print(frame.columns)
print("Gram matrix (want 1 on the diagonal, -1/3 off it):")
print(frame.gram())
report = verify_etf(frame)
print(f"verify: pass={report.passed}, max deviation {report.max_deviation:.2e}\n")

print("=== The minimal case d = K-1: a regular simplex ===")
for K in (3, 4, 10):
    frame = generate_etf(K - 1, K, seed=0)
    off = frame.gram()[~np.eye(K, dtype=bool)]
    print(
        f"K={K:>2}, d={K-1:>2}: off-diagonal cosines all "
        f"{off.mean():+.6f} (target {-1/(K-1):+.6f}), spread {np.ptp(off):.1e}"
    )
print()

print("=== Columns always sum to zero (the frame is centered) ===")
for d, K in ((9, 10), (128, 64)):
    frame = generate_etf(d, K, seed=5)
    print(f"d={d:>3}, K={K:>2}: ||sum of columns|| = {np.linalg.norm(frame.columns.sum(axis=1)):.2e}")
print()

print("=== Scaling columns per class ===")
frame = generate_etf(4, 2, seed=0)
clf = scale_classifier(frame, [100 / (2 * 90), 100 / (2 * 10)])  # N/(K n_k) for n=(90,10)
print("lengths for counts (90, 10):", clf.lengths)
print("scaled pairwise dot products:")
print(clf.scaled_columns.T @ clf.scaled_columns)
print()

print("=== JSON round trip is exact ===")
frame = generate_etf(5, 4, seed=7)
text = json.dumps(frame_to_json_dict(frame))
back = frame_from_json_dict(json.loads(text))
print("bit-identical columns after round trip:", np.array_equal(back.columns, frame.columns))
