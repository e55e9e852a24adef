"""One full speculative generation run, narrated step by step.

The draft model proposes a few tokens per step; the target verifies each one
along the shared noise; the first rejection is patched by a residual-
distribution sample, and full acceptance earns a bonus token from the target.
"""

from cspdec.autoregressive import SequenceState
from cspdec.engine import RunStats, speculative_step
from cspdec.rng import PositionStreams
from cspdec.scenarios import standard_pair

target, draft, config = standard_pair()
streams = PositionStreams(master_seed=2024)
state = SequenceState(capacity=config.length)
stats = RunStats()

step = 0
while state.remaining:
    step += 1
    before = len(state)
    rows = len(stats.proposal_log_ratios)
    resamples = len(stats.resample_trials)
    state = speculative_step(target, draft, state, config, streams, stats)
    accepted = stats.step_accepted[-1]
    log_ratios = stats.proposal_log_ratios[rows:]
    uniforms = stats.proposal_uniforms[rows:]
    print(f"step {step}: proposed {stats.step_proposed[-1]} drafts")
    for i, (lr, u) in enumerate(zip(log_ratios, uniforms)):
        verdict = (
            "accepted" if i < accepted
            else "REJECTED" if i == accepted
            else "discarded"
        )
        print(f"   draft {i}: ratio={min(1.0, 2.718281828 ** lr):.3f} u={u:.3f} -> {verdict}")
    if len(stats.resample_trials) > resamples:
        print(
            f"   resampled replacement {state.tokens[before + accepted][0]:+.4f} "
            f"after {stats.resample_trials[-1]} trial(s)"
        )
    appended = state.origins[before:]
    print(f"   appended: {appended}\n")

print("final origins:", state.origins)
print("final tokens: ", [f"{t[0]:+.4f}" for t in state.tokens])
