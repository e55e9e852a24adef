"""Acceptance versus draft length, pre-filling, and the walltime model.

Reproduces the qualitative experiment structure at desk scale: acceptance
decays as the draft length grows, pre-filling repairs the weak early
positions of a prefix-divergent pair with diminishing returns, and measured
throughput under an abstract cost model tracks the closed-form improvement
factor.
"""

from dataclasses import replace

from cspdec.bench import expected_speedup, simulated_speedup, sweep
from cspdec.oracle import empirical_acceptance
from cspdec.parallel import run_replicates
from cspdec.rng import replicate_seed
from cspdec.scenarios import prefix_divergent_pair, standard_pair, stationary_pair

REPLICATES = 300

target, draft, config = standard_pair()
print("acceptance vs draft length (standard pair, length 40):")
result = sweep(
    target, draft, replace(config, length=40), "gamma", [4, 8, 16, 32],
    replicates=REPLICATES, master_seed=1, jobs=2,
)
for pt in result.points:
    print(
        f"  gamma={int(pt.axis_value):>2}: alpha={pt.mean_alpha:.3f}"
        f"+-{pt.stderr_alpha:.3f}  tokens/step={pt.tokens_per_step:.2f}"
        f"  mean trials={pt.mean_trials:.2f}"
    )

print("\npre-filling on the prefix-divergent pair:")
p_target, p_draft, p_config = prefix_divergent_pair()
result = sweep(
    p_target, p_draft, p_config, "prefill", [0.0, 0.05, 0.15],
    replicates=REPLICATES, master_seed=2, jobs=2,
)
for pt in result.points:
    early = [pt.per_position_alpha.get(i) for i in range(3)]
    early_txt = ", ".join("-" if e is None else f"{e:.2f}" for e in early)
    print(f"  rho={pt.axis_value:.2f}: alpha={pt.mean_alpha:.3f}  "
          f"per-position alpha at 0..2: [{early_txt}]")

print("\nwalltime model on a stationary pair (cost ratio c = draft/target):")
s_target, s_draft, s_config = stationary_pair()
s_config = replace(s_config, length=96)
stats = run_replicates(
    s_target, s_draft, s_config,
    [replicate_seed(3, 0, r) for r in range(150)], jobs=2,
)
alpha = empirical_acceptance(stats).alpha_examined
print(f"  per-draft acceptance alpha = {alpha:.3f}, gamma = {s_config.gamma}")
for c in (0.0, 0.1, 0.3, 0.5):
    sim = simulated_speedup(stats, c)
    formula = expected_speedup(alpha, s_config.gamma, c)
    print(f"  c={c:.1f}: simulated speedup {sim:.3f}  formula {formula:.3f}")
