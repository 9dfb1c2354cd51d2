"""
Propensity matching for like-with-like comparison
=================================================

When subgroups differ in case mix, raw metric gaps conflate model behavior
with population differences.  Matching builds pairs with similar covariate
profiles: fit P(group | covariates), greedily pair each treated record with
the nearest control on the logit scale, discard pairs farther apart than the
caliper, and verify balance with standardized mean differences.
"""

import numpy as np

from biasaudit.cohort import attribute_values
from biasaudit.matching import balance_report, match_contrast, smd
from biasaudit.synth import (
    CovariateSpec,
    OutcomeModel,
    ProtectedSpec,
    ScoreModel,
    SynthConfig,
    generate,
)

# Confounded cohort: the "t" group is sicker (severity shifted by +0.8) and
# older, so any raw comparison between groups is apples to oranges.
config = SynthConfig(
    n=3000,
    protected=(ProtectedSpec("g", ("t", "c"), (0.3, 0.7)),),
    covariates=(
        CovariateSpec("severity", shifts={"g": {"t": 0.8}}),
        CovariateSpec("age", mu=62.0, sigma=12.0, shifts={"g": {"t": 4.0}}),
    ),
    outcome=OutcomeModel(intercept=-0.5, weights={"severity": 1.5, "age": 0.02}),
    score=ScoreModel(kind="oracle_noise", noise_sd=0.05),
    seed=11,
)
cohort, _ = generate(config)

values = attribute_values(cohort, "g")
idx_t = [i for i, v in enumerate(values) if v == "t"]
idx_c = [i for i, v in enumerate(values) if v == "c"]


def cov(name):
    return np.asarray([float(r.covariates[name]) for r in cohort.records])


print("before matching:")
for name in ("severity", "age"):
    print(f"  SMD[{name}] = {smd(cov(name), idx_t, idx_c):.3f}")

sample, prop = match_contrast(cohort, "g", "t", "c",
                              covariates=("severity", "age"))
print()
print(f"matched {sample.treated.size} pairs "
      f"({sample.unmatched_treated} treated left unmatched, "
      f"caliper {sample.caliper:.4f} on the logit scale)")

# The pairs are columns: sample.treated[k] was matched to sample.control[k].
print()
print("after matching:")
for name in ("severity", "age"):
    print(f"  SMD[{name}] = {smd(cov(name), sample.treated, sample.control):.3f}")

# The balance report bundles the same numbers per covariate, which is what
# the audit attaches to its matched cells.
report = balance_report(cohort, sample, ("severity", "age"), propensity=prop)
print()
print(f"balance report ({report.matched_n} matched records, "
      f"passes min n: {report.passes_min_n}):")
for row in report.covariates:
    print(f"  {row.name:<10} {row.smd_before:+.3f} -> {row.smd_after:+.3f}")
