"""
Threshold-free and thresholded metrics
======================================

AUROC needs no decision threshold; PPV, sensitivity, specificity and the
error rates do.  The toolkit picks the threshold by maximizing Youden's J
(sensitivity + specificity - 1) unless a fixed cut is configured, and the
calibration curve shows whether scores can be read as probabilities at all.
"""

import numpy as np

from biasaudit.metrics import (
    auroc,
    calibration_curve,
    confusion,
    threshold_metrics,
    youden_threshold,
)


def expit(z):
    return 1.0 / (1.0 + np.exp(-z))


rng = np.random.default_rng(3)
n = 2000
x = rng.normal(0.0, 1.0, n)
p = expit(-0.5 + 1.8 * x)
labels = (rng.uniform(0, 1, n) < p).astype(int)
scores = expit(-0.5 + 1.8 * x + rng.normal(0, 0.4, n))

print(f"n={n}, prevalence {labels.mean():.3f}")
print(f"AUROC {auroc(labels, scores):.4f}  (probability a random positive "
      "outranks a random negative, ties half-counted)")

t = youden_threshold(labels, scores)
print(f"Youden-optimal threshold {t:.4f}  (decision rule: score >= t)")

counts = confusion(labels, scores, t)
m = threshold_metrics(counts, t)
print()
print(f"confusion at t: TP={counts.tp} FP={counts.fp} TN={counts.tn} FN={counts.fn}")
print(f"  PPV  {m.ppv:.3f}")
print(f"  SENS {m.sensitivity:.3f}")
print(f"  SPEC {m.specificity:.3f}")
print(f"  FNR  {m.fnr:.3f}   FPR {m.fpr:.3f}")

# A sliding threshold trades sensitivity against specificity; J peaks where
# their sum does.  Show a few cuts around the optimum.
print()
print("threshold sweep:")
for cut in (t - 0.2, t - 0.1, t, t + 0.1, t + 0.2):
    mm = threshold_metrics(confusion(labels, scores, cut), cut)
    j = mm.sensitivity + mm.specificity - 1.0
    marker = " <- youden" if cut == t else ""
    print(f"  t={cut:.3f}  sens={mm.sensitivity:.3f} "
          f"spec={mm.specificity:.3f} J={j:.3f}{marker}")

# Calibration: equal-width bins over [0, 1]; each kept bin reports the mean
# score against the observed positive fraction.
curve = calibration_curve(labels, scores, n_bins=10)
print()
print("calibration (mean score vs positive fraction):")
for b in curve.bins:
    print(f"  {b.mean_score:.3f} -> {b.positive_fraction:.3f}  (n={b.count})")
