"""Speculative decoding for continuous-valued autoregressive tokens.

Tokens are d-dimensional real vectors sampled through Gaussian denoising
chains conditioned by a toy autoregressive backbone.  A cheap draft model
proposes several tokens per step; the expensive target model verifies them
along noise-aligned chains and patches the first rejection by
acceptance-rejection sampling from the residual distribution, preserving the
target model's output law.
"""

from .autoregressive import (
    ARBackboneSpec,
    Model,
    SequenceState,
    condition,
    prefill,
    prefill_count,
    target_only_generate,
)
from .bench import (
    SweepResult,
    expected_speedup,
    simulated_speedup,
    sweep_gamma,
    sweep_prefill,
    sweep_temperature,
    tokens_per_step,
    trials_histogram,
)
from .diffusion import (
    ChainDivergenceError,
    DenoiserSpec,
    DenoisingTrajectory,
    NoiseRecord,
    analytic_marginal,
    draw_noise_record,
    last_step_logpdf,
    run_chain,
    tail_log_density_ratio,
)
from .engine import (
    ResampleExhaustedError,
    RunStats,
    SpecDecodeConfig,
    acceptance_log_ratio,
    generate,
    rejection_resample,
    resample_threshold,
    speculative_step,
    verify_drafts,
)
from .gaussian import (
    VARIANCE_FLOOR,
    GaussianParams,
    gaussian_logpdf,
    log_std_ratio,
    reparameterize,
)
from .oracle import (
    AcceptanceSummary,
    DistCheckResult,
    Grid1D,
    IndistinguishableDensitiesError,
    ResidualDistribution,
    beta_integral,
    chi_square_gof,
    distribution_check,
    empirical_acceptance,
    full_chain_log_ratio,
    gaussian_density,
    ks_two_sample,
    residual_distribution_grid,
)
from .rng import PositionStreams, derive_seed, substream

__version__ = "0.1.0"
