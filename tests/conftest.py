import numpy as np
import pytest

from cspdec.parallel import run_replicates
from cspdec.rng import replicate_seed
from cspdec.scenarios import prefix_divergent_pair, standard_pair

JOBS = 2

# ChainPlan's message for a temperature that takes a step variance out of range.
BELOW_FLOOR = "temperature {} takes a step variance below the variance floor 1e-12 or to inf"

# Scoreboard lines collected by the acceptance tests; echoed after the run so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def log_std_ratio(var_num, var_den) -> float:
    """Reference log of the ratio of two standard-deviation products.

    ``0.5 * sum_i (log var_num_i - log var_den_i)``, the log-space form of
    ``sqrt(|diag(var_num)|) / sqrt(|diag(var_den)|)``.
    """
    num = np.asarray(var_num, dtype=np.float64)
    den = np.asarray(var_den, dtype=np.float64)
    return float(0.5 * np.sum(np.log(num) - np.log(den)))


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


def step_mean(spec, row: int, state, cond) -> np.ndarray:
    """Reference mean of step ``row`` (execution order), in numpy on the spec's rows.

    The independent per-row formula that ``run_chain``'s float loop must match bit
    for bit: ``state_coef * state + cond_coef * cond + offset``, then tanh if the
    denoiser has it.
    """
    m = spec.state_coef[row] * state + spec.cond_coef[row] * cond + spec.offset[row]
    if spec.nonlinearity == "tanh":
        m = np.tanh(m)
    return m
