import numpy as np
import pytest

from cspdec.gaussian import log_std_ratio
from cspdec.parallel import run_replicates
from cspdec.rng import replicate_seed
from cspdec.scenarios import prefix_divergent_pair, standard_pair

JOBS = 2

# Scoreboard lines collected by the acceptance tests; echoed after the run so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def drop_whole_chain_variance_product(traj_q, traj_p) -> float:
    """Criterion-2 mutation, patched over ``engine.tail_log_density_ratio``.

    Removes the whole-chain variance product 0.5 * sum_t log(var_q,t / var_p,t)
    over all T steps from the acceptance log-ratio and the resampling threshold
    alike: it returns minus the final-step normaliser difference in place of
    the tail term.  Process-pool workers are forked, so they inherit the patch.
    """
    return -log_std_ratio(traj_q.variances[-1], traj_p.variances[-1])


@pytest.fixture(scope="session")
def std_pair():
    return standard_pair()


@pytest.fixture(scope="session")
def prefix_pair():
    return prefix_divergent_pair()


@pytest.fixture(scope="session")
def prefill_run_stats(prefix_pair):
    """1000 replicates of the prefix-divergent scenario at rho in {0, 0.05, 0.15}."""
    from dataclasses import replace

    target, draft, config = prefix_pair
    out = {}
    for rho in (0.0, 0.05, 0.15):
        cfg = replace(config, rho=rho)
        seeds = [replicate_seed(20240, int(rho * 100), r) for r in range(1000)]
        out[rho] = run_replicates(target, draft, cfg, seeds, jobs=JOBS)
    return out


def random_denoiser(rng: np.random.Generator, steps: int, dim: int, tanh_prob: float = 0.3):
    from cspdec.diffusion import DenoiserSpec

    return DenoiserSpec(
        state_coef=rng.uniform(-1.0, 1.0, (steps, dim)),
        cond_coef=rng.uniform(-1.0, 1.0, (steps, dim)),
        offset=rng.uniform(-1.0, 1.0, (steps, dim)),
        variance=rng.uniform(0.05, 2.5, (steps, dim)),
        nonlinearity="tanh" if rng.random() < tanh_prob else "identity",
    )
