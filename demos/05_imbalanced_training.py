"""Desk-scale imbalanced training: four classifier/loss regimes compared.

A small MLP is trained on synthetic 10-class Gaussian blobs whose class
counts decay exponentially to an imbalance ratio of 0.01 (500 down to 5
samples). The four regimes mirror the standard ablation: learnable
classifier with plain or class-weighted CE, and a frozen ETF classifier
with CE or the dot-regression loss (class-weighted column lengths,
sphere-normalized features). The balanced test set scores each class
equally, and per-epoch neural-collapse statistics show how tightly each
regime approaches the ETF geometry.

One seed by default (~6 s); pass an integer argument for more seeds.
"""

import sys

import numpy as np

from etfnc import MlpBackbone, SyntheticDatasetSpec, TrainConfig, make_imbalanced_dataset, train
from etfnc.serialize import derive_seed

REGIMES = ("learnable-ce", "learnable-wce", "etf-ce", "etf-dr")
n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 1

results = {r: [] for r in REGIMES}
per_class = {}
for seed in range(n_seeds):
    spec = SyntheticDatasetSpec(
        num_classes=10, input_dim=32, n_max=500, imbalance_ratio=0.01,
        separation=3.0, noise_scale=1.0, seed=derive_seed(seed, "dataset"),
    )
    train_set, test_set = make_imbalanced_dataset(spec)
    if seed == 0:
        print("train class counts:", train_set.counts().tolist())
        print("balanced test set:", test_set.size, "samples\n")
    for regime in REGIMES:
        model = MlpBackbone.init([32, 64, 32], seed=derive_seed(seed, f"model:{regime}"))
        log = train(model, train_set, test_set, TrainConfig(epochs=48, regime=regime, seed=seed))
        quarter = max(1, len(log.records) // 4)
        tail = log.records[-quarter:]
        results[regime].append(
            (
                log.final_bal_acc,
                float(np.mean([r.train.cos_ff_std for r in tail])),
                float(np.mean([r.train.cos_fc_std for r in tail])),
                float(np.mean([r.train.self_duality for r in tail])),
            )
        )
        per_class[regime] = log.per_class_acc

print(f"=== final balanced accuracy over {n_seeds} seed(s) ===")
for regime in REGIMES:
    accs = [v[0] for v in results[regime]]
    print(f"{regime:>13}: {np.mean(accs):.4f}" + (f" +- {np.std(accs):.4f}" if n_seeds > 1 else ""))
print()

print("=== per-class test accuracy, seed 0 (classes ordered major -> minor) ===")
for regime in REGIMES:
    print(f"{regime:>13}: " + " ".join(f"{a:4.2f}" for a in per_class[regime]))
print()
print("Plain CE nails the majors and abandons the smallest classes; the")
print("class-weighted ETF+DR regime trades a little headroom on the majors")
print("for the minors and wins on the balanced metric.\n")

print("=== neural-collapse tightness, final quarter of training (train set) ===")
print(f"{'regime':>13} {'cos_ff_std':>11} {'cos_fc_std':>11} {'self_duality':>13}")
for regime in REGIMES:
    ff = np.mean([v[1] for v in results[regime]])
    fc = np.mean([v[2] for v in results[regime]])
    sd = np.mean([v[3] for v in results[regime]])
    print(f"{regime:>13} {ff:11.4f} {fc:11.4f} {sd:13.4f}")
print()
print("Smaller stds = the class means sit closer to a true equiangular frame;")
print("the frozen-ETF regimes track the collapse geometry much more tightly.")
