"""How the acceptance ratio of two denoising chains telescopes.

Two different denoisers are run on the *same* noise record.  Every step's
density, evaluated at that step's own output, collapses to a normalization
constant, so the full chain log-ratio equals one cached variance term plus
the two final-step densities.  The brute-force term-by-term sum agrees to
machine precision.
"""

import numpy as np

from cspdec.diffusion import draw_noise_record, run_chain, tail_log_density_ratio
from cspdec.engine import acceptance_log_ratio
from cspdec.oracle import full_chain_log_ratio
from cspdec.scenarios import standard_pair

target, draft, config = standard_pair()
rng = np.random.default_rng(7)

cond_q = np.array([0.1])
cond_p = np.array([0.3])
noise = draw_noise_record(config.steps, config.dim, rng)

traj_q = run_chain(draft.denoiser, cond_q, noise)
print(f"draft token (chain output): {traj_q.token[0]:+.4f}")
print(f"intermediate draft states:  {[f'{x[0]:+.4f}' for x in traj_q.outputs]}")

log_ratio, traj_p = acceptance_log_ratio(
    traj_q, target.denoiser, cond_p, noise, traj_q.token
)
brute_force = full_chain_log_ratio(
    draft.denoiser, target.denoiser, cond_q, cond_p, noise, traj_q.token
)

print(f"\ntelescoped log ratio:  {log_ratio:+.12f}")
print(f"brute-force log ratio: {brute_force:+.12f}")
print(f"difference:            {abs(log_ratio - brute_force):.2e}")
print(f"acceptance probability min(1, ratio) = {min(1.0, np.exp(log_ratio)):.4f}")

# The tail term is exactly zero here because the pinned pair shares its
# variance schedule on every step but the last.
print(f"\ntail variance term: {tail_log_density_ratio(traj_q, traj_p):+.4f}")
print("(zero: draft and target share the tail variance schedule)")
