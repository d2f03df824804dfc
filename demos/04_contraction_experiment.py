"""One-step contraction near the optimum: DR's bound and the CE ordering.

Near h* a projected DR step with rate sqrt(E_H/E_W) contracts the
squared distance by exactly (1 + cos)/2 before projection, and at most
that after it. CE's pre-projection contraction is worse for every fixed
rate (it matches the bound only at a rate that depends on the iterate).
This script measures both on paired trials and also shows why the
comparison must be made before projection: the projection step rescues
CE's radial overshoot, making its projected iterate look deceptively
good this close to the optimum.
"""

from etfnc.etf import generate_etf, uniform_classifier
from etfnc.regularity import check_sweep, run_regularity_sweep

K, d = 10, 20
clf = uniform_classifier(generate_etf(d, K, seed=0), 1.0)

print("=== DR at gamma = sqrt(E_H/E_W): ratio vs the (1+cos)/2 bound ===")
deltas = (0.01, 0.05, 0.1)
runs = run_regularity_sweep(clf, [("dr", 1.0)], deltas, trials=500, seed=1)
for delta, [records] in zip(deltas, runs):
    worst = max(r.ratio - r.bound for r in records)
    raw_dev = max(abs(r.raw_ratio - r.bound) for r in records)
    print(
        f"delta={delta:4}: projected ratio - bound <= {worst:+.2e} on all "
        f"{len(records)} trials; pre-projection ratio == bound to {raw_dev:.1e}"
    )
print()

print("=== Paired CE vs DR at matched starts (delta = 0.01) ===")
steps = [("dr", 1.0)] + [("ce", gamma) for gamma in (0.05, 0.1, 0.5, 1.0)]
runs = run_regularity_sweep(clf, steps, [0.01], trials=500, seed=2)
out = check_sweep(steps, [0.01], runs)[0]["paired_dominance"]
print(f"uniformity gate: off-class softmax deviation < {out['uniformity_gate']:g}")
print(f"{'gamma_CE':>8} {'gated':>6} {'CE pre-proj':>12} {'DR pre-proj':>12} {'CE>=DR':>7} {'CE proj':>9} {'DR proj':>9}")
for cfg in out["configs"]:
    if cfg.get("raw_dominance_frac") is None:
        print(f"{cfg['gamma_ce']:8.2f} {cfg['gated_trials']:>6} (no trials passed the gate)")
        continue
    print(
        f"{cfg['gamma_ce']:8.2f} {cfg['gated_trials']:>6} {cfg['mean_ce_raw']:12.4f} "
        f"{cfg['mean_dr_raw']:12.6f} {cfg['raw_dominance_frac']:7.0%} "
        f"{cfg['mean_ce_ratio']:9.4f} {cfg['mean_dr_ratio']:9.6f}"
    )
print()
print("Pre-projection, CE never beats DR's (1+cos)/2 at any fixed rate (the")
print("margin is the squared mismatch between the fixed rate and the iterate-")
print("dependent ideal one). The projected columns show the rescue effect:")
print("projection cancels CE's radial overshoot, so its projected one-step")
print("ratio can sit far below DR's -- which is why the regularity ordering")
print("is a statement about the un-projected step.")
print()

print("=== CE at the per-trial ideal rate tracks the bound ===")
[[records]] = run_regularity_sweep(clf, [("ce-opt", None)], [0.01], trials=300, seed=3)
gaps = [r.raw_ratio - r.bound for r in records]
print(
    f"rate gamma*(h) = (K-1)/K sqrt(E_H/E_W) (1-cos)/(1-p_c): pre-projection "
    f"ratio - bound in [{min(gaps):+.1e}, {max(gaps):+.1e}] over {len(records)} trials"
)
print("(residue is the off-class non-uniformity; the rate varies per trial, so")
print("it is not an admissible fixed learning rate)")
