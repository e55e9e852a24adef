"""Sampling the residual distribution after a rejection.

When a draft token is rejected, the replacement must come from the
normalized positive part of (target density - draft density).  That law has
no analytic sampler, but acceptance-rejection with the target as proposal
needs only pointwise density evaluations once the envelope constant is
folded into the threshold.  The expected number of trials is one over the
residual mass.
"""

import numpy as np

from cspdec.engine import rejection_resample
from cspdec.oracle import (
    Grid1D,
    chi_square_critical,
    chi_square_gof,
    gaussian_density,
    residual_distribution_grid,
)
from cspdec.scenarios import decoupled_pair

N = 20_000

target, draft = decoupled_pair(0.0, 1.0, 1.0, 1.0)
grid = Grid1D.covering([0.0, 1.0], [1.0, 1.0], bins=2000)
residual = residual_distribution_grid(
    gaussian_density(0.0, 1.0), gaussian_density(1.0, 1.0), grid
)
print(f"residual mass Z = {residual.normalizer:.5f}  (2*Phi(0.5) - 1 = 0.38292)")
print(f"expected trials per accepted sample: 1/Z = {1 / residual.normalizer:.3f}")

rng = np.random.default_rng(99)
outputs = np.empty(N)
trials = np.empty(N, dtype=int)
for i in range(N):
    token, t = rejection_resample(target.denoiser, [0.0], draft.denoiser, [0.0], 1.0, rng)
    outputs[i] = token[0]
    trials[i] = t

print(f"\nobserved mean trials: {trials.mean():.3f}")
values, counts = np.unique(trials, return_counts=True)
print("trial-count histogram:", {int(v): int(c) for v, c in zip(values, counts)})

stat, df = chi_square_gof(outputs, residual)
crit = chi_square_critical(df, 0.01)
print(f"\nchi-square against the grid residual law: {stat:.1f} "
      f"(critical at 1%: {crit:.1f}, df={df})")
print("sampler matches the residual distribution" if stat < crit else "MISMATCH")
