"""Independent oracles and statistical tests.

Everything here is deliberately brute force: grid integration for the
residual distribution and its normalizer, a term-by-term chain-ratio
computation that never uses the telescoped shortcut, and standard two-sample
statistics.  The engine is judged against these, never the other way around.

``scipy.special`` is imported inside the two functions that use it, so
importing this module (and every command that does not run a statistical
test) never loads scipy, and nothing here loads ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .autoregressive import Model
from .diffusion import DenoiserSpec, DenoisingTrajectory, NoiseRecord, run_chain
from .engine import RunStats, SpecDecodeConfig
from .gaussian import LOG_2PI, GaussianParams, as_vector, gaussian_logpdf
from .parallel import baseline_token_matrix, speculative_token_matrix
from .rng import replicate_seed

_SPEC_SIDE_TAG = 5
_REFERENCE_SIDE_TAG = 7


class IndistinguishableDensitiesError(ValueError):
    """The residual normalizer is (numerically) zero: p and q coincide."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D integration grid with at least 100 bins."""

    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid requires lo < hi")
        if self.bins < 100:
            raise ValueError("grid requires at least 100 bins")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.bins) + 0.5) * self.width

    @property
    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.bins + 1) * self.width

    @classmethod
    def covering(cls, means: Iterable[float], stds: Iterable[float], bins: int = 4000,
                 half_width: float = 8.0) -> "Grid1D":
        """Grid spanning ``half_width`` standard deviations around every density."""
        means = list(means)
        stds = list(stds)
        lo = min(m - half_width * s for m, s in zip(means, stds))
        hi = max(m + half_width * s for m, s in zip(means, stds))
        return cls(lo, hi, bins)


@dataclass(frozen=True)
class ResidualDistribution:
    """Grid discretization of the normalized positive part of p - q."""

    grid: Grid1D
    pmf: np.ndarray
    normalizer: float

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != (self.grid.bins,):
            raise ValueError("pmf shape must match the grid")
        if np.any(pmf < 0.0):
            raise ValueError("pmf must be nonnegative")
        if abs(pmf.sum() - 1.0) > 1e-9:
            raise ValueError("pmf must sum to one")
        if not 0.0 < self.normalizer <= 1.0 + 1e-9:
            raise ValueError("normalizer must lie in (0, 1]")
        pmf = pmf.copy()
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF sampling of bin centers (grid-resolution draws)."""
        cdf = np.cumsum(self.pmf)
        idx = np.searchsorted(cdf, rng.random(n), side="right")
        idx = np.minimum(idx, self.grid.bins - 1)
        return self.grid.centers[idx]


Density = Callable[[np.ndarray], np.ndarray]


def residual_distribution_grid(
    p_density: Density, q_density: Density, grid: Grid1D
) -> ResidualDistribution:
    """Discretize ``norm(max(0, p - q))`` on the grid by midpoint masses."""
    x = grid.centers
    p = np.asarray(p_density(x), dtype=np.float64)
    q = np.asarray(q_density(x), dtype=np.float64)
    if p.shape != x.shape or q.shape != x.shape:
        raise ValueError("densities must evaluate pointwise on the grid")
    if np.any(p < 0.0) or np.any(q < 0.0) or not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("densities must be nonnegative and finite on the grid")
    raw = np.maximum(0.0, p - q) * grid.width
    z = float(raw.sum())
    if z < 1e-12:
        raise IndistinguishableDensitiesError(
            "residual distribution undefined: p and q are (numerically) identical"
        )
    return ResidualDistribution(grid=grid, pmf=raw / z, normalizer=z)


def beta_integral(p_density: Density, q_density: Density, grid: Grid1D) -> float:
    """Grid value of the overlap ``integral of min(p, q)``, the acceptance mass."""
    x = grid.centers
    return float(np.sum(np.minimum(p_density(x), q_density(x))) * grid.width)


def gaussian_density(mean: float, variance: float) -> Density:
    """1-D Gaussian pdf as a grid-evaluable callable."""
    norm = 1.0 / np.sqrt(2.0 * np.pi * variance)

    def pdf(x: np.ndarray) -> np.ndarray:
        return norm * np.exp(-((x - mean) ** 2) / (2.0 * variance))

    return pdf


def trajectory_logpdf_terms(traj: DenoisingTrajectory) -> np.ndarray:
    """Per-step log-density of each recorded output under its own step params.

    Summing these reproduces the full-chain log-density of the realized
    trajectory (the ``x_T`` prior term excluded).  The ``(T, d)`` rows of
    means and outputs are built here from the trajectory's float columns.
    """
    means, outputs = np.array(traj.mean_columns).T, np.array(traj.output_columns).T
    terms = np.empty(traj.steps)
    for row, var in enumerate(traj.variances):
        dev = outputs[row] - means[row]
        terms[row] = np.sum(-0.5 * (LOG_2PI + np.log(var)) - dev * dev / (2.0 * var))
    return terms


def full_chain_log_ratio(
    draft: DenoiserSpec,
    target: DenoiserSpec,
    cond_q,
    cond_p,
    noise: NoiseRecord,
    x_out,
    temperature: float = 1.0,
) -> float:
    """Unsimplified chain log-ratio, summed term by term along aligned runs.

    Both chains are run on the shared record; every step contributes its own
    log-density at its own output, except the target's final step, which is
    evaluated at the supplied token.  The shared ``x_T`` prior terms cancel
    identically and are skipped.
    """
    if draft.steps != target.steps or draft.dim != target.dim:
        raise ValueError("draft and target must share step count and dimension")
    x_out = as_vector(x_out, dim=target.dim, name="x_out")
    traj_q = run_chain(draft, cond_q, noise, temperature)
    traj_p = run_chain(target, cond_p, noise, temperature)
    q_terms = trajectory_logpdf_terms(traj_q)
    p_terms = trajectory_logpdf_terms(traj_p)
    # Replace the target's own final output with the token under verification.
    p_last = gaussian_logpdf(x_out, GaussianParams(traj_p.final_mean, traj_p.variances[-1]))
    return float(p_terms[:-1].sum() + p_last - q_terms.sum())


def analytic_marginal(spec: DenoiserSpec, cond, temperature: float = 1.0) -> GaussianParams:
    """Exact Gaussian marginal of the chain output for affine chains.

    Composes the affine-Gaussian steps from ``x_T ~ N(0, I)`` forward; only
    valid when the nonlinearity is the identity.
    """
    if spec.nonlinearity != "identity":
        raise ValueError("analytic marginal is only defined for affine (identity) chains")
    cond = as_vector(cond, dim=spec.dim, name="cond")
    variances = spec.plan(temperature).variances
    mean = np.zeros(spec.dim)
    var = np.ones(spec.dim)
    for row in range(spec.steps):
        mean = spec.state_coef[row] * mean + spec.cond_coef[row] * cond + spec.offset[row]
        var = spec.state_coef[row] ** 2 * var + variances[row]
    return GaussianParams(mean, var)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic with its asymptotic p-value.

    ``D`` is computed as ``scipy.stats.ks_2samp`` computes it: both samples
    sorted, their empirical CDFs evaluated on the pooled sample with
    ``searchsorted(side="right")`` (so ties are handled), and ``D`` the larger
    of the two signed gaps.  The p-value is the limiting Kolmogorov law at
    ``sqrt(n*m/(n+m)) * D``, ``scipy.special.kolmogorov``, the law that
    :func:`ks_critical_value` inverts.  It is not scipy's ``method="asymp"``
    value, which takes the finite-sample one-sample law at the rounded
    effective size: at ``n = m = 1500`` and ``D = 0.038`` the two read 0.2289
    and 0.2232.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be non-empty")
    from scipy import special

    n, m = a.shape[0], b.shape[0]
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n
    cdf_b = np.searchsorted(b, pooled, side="right") / m
    gaps = cdf_a - cdf_b
    statistic = max(float(np.clip(-gaps.min(), 0.0, 1.0)), float(gaps.max()))
    return statistic, float(special.kolmogorov(math.sqrt(n * m / (n + m)) * statistic))


def ks_critical_value(n: int, m: int, significance: float) -> float:
    """Asymptotic two-sample rejection threshold at the given significance."""
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie in (0, 1)")
    c = np.sqrt(-0.5 * np.log(significance / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


def chi_square_gof(samples, reference: ResidualDistribution) -> tuple[float, int]:
    """Pearson goodness-of-fit of samples against a grid pmf.

    Bins with expected count below five are pooled with their neighbors
    before the statistic is formed; degrees of freedom are the retained
    group count minus one.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    grid = reference.grid
    idx = np.clip(
        np.searchsorted(grid.edges, samples, side="right") - 1, 0, grid.bins - 1
    )
    observed = np.bincount(idx, minlength=grid.bins).astype(np.float64)
    expected = reference.pmf * samples.size

    groups_obs: list[float] = []
    groups_exp: list[float] = []
    acc_obs = 0.0
    acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= 5.0:
            groups_obs.append(acc_obs)
            groups_exp.append(acc_exp)
            acc_obs = 0.0
            acc_exp = 0.0
    if acc_exp > 0.0 or acc_obs > 0.0:
        if groups_exp:
            groups_obs[-1] += acc_obs
            groups_exp[-1] += acc_exp
        else:
            groups_obs.append(acc_obs)
            groups_exp.append(acc_exp)
    if len(groups_exp) < 2:
        raise ValueError("too few samples: fewer than two bins reach the expected-count floor")
    obs = np.array(groups_obs)
    exp = np.array(groups_exp)
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    return statistic, len(groups_exp) - 1


def chi_square_critical(df: int, significance: float) -> float:
    """Upper ``significance`` quantile of the chi-square law with ``df`` degrees of freedom."""
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie in (0, 1)")
    if not df >= 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    from scipy import special

    return float(2.0 * special.gammaincinv(df / 2.0, 1.0 - significance))


@dataclass(frozen=True)
class AcceptanceSummary:
    """Empirical acceptance rates aggregated from run statistics."""

    proposed: int
    examined: int
    accepted: int
    per_position: dict[int, tuple[int, int]]  # position -> (accepted, examined)

    @property
    def alpha(self) -> float | None:
        """Accepted drafts over all proposed drafts."""
        return self.accepted / self.proposed if self.proposed else None

    @property
    def alpha_examined(self) -> float | None:
        """Accepted drafts over examined drafts: the per-draft acceptance
        probability estimate, the quantity the walltime formula calls alpha."""
        return self.accepted / self.examined if self.examined else None


def empirical_acceptance(stats: RunStats | Iterable[RunStats]) -> AcceptanceSummary:
    """Per-position and overall acceptance rates from one or more runs."""
    if isinstance(stats, RunStats):
        stats = [stats]
    proposed = examined = accepted = 0
    per_position: dict[int, list[int]] = {}
    for run in stats:
        proposed += len(run.proposal_positions)
        for pos, exam, acc in zip(
            run.proposal_positions, run.proposal_examined, run.proposal_accepted
        ):
            if exam:
                examined += 1
                cell = per_position.setdefault(pos, [0, 0])
                cell[1] += 1
                if acc:
                    accepted += 1
                    cell[0] += 1
    return AcceptanceSummary(
        proposed=proposed,
        examined=examined,
        accepted=accepted,
        per_position={k: (v[0], v[1]) for k, v in sorted(per_position.items())},
    )


@dataclass(frozen=True)
class PositionKS:
    position: int
    coordinate: int  # -1 marks the random 1-D projection used when dim > 1
    statistic: float
    pvalue: float
    critical: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical


@dataclass(frozen=True)
class DistCheckResult:
    """Per-position equivalence test between speculative and target-only output."""

    runs: int
    significance: float
    tests: tuple[PositionKS, ...]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tests)

    @property
    def max_statistic(self) -> float:
        return max(t.statistic for t in self.tests)


def reference_tokens(
    target: Model, config: SpecDecodeConfig, runs: int, jobs: int | None = None
) -> np.ndarray:
    """Target-only token corpus for the equivalence suite, ``(runs, L, d)``."""
    seeds = [replicate_seed(config.seed, _REFERENCE_SIDE_TAG, r) for r in range(runs)]
    return baseline_token_matrix(target, config, seeds, jobs=jobs)


def distribution_check(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
    runs: int,
    significance: float = 0.01,
    jobs: int | None = None,
    reference: np.ndarray | None = None,
) -> DistCheckResult:
    """KS-compare speculative output to target-only output at every position.

    Generates ``runs`` independent speculative sequences and ``runs``
    independent target-only sequences (disjoint seed families), then tests
    each (position, coordinate) pair with the two-sample KS statistic at the
    given significance.  A precomputed target-only corpus from
    :func:`reference_tokens` can be reused across checks.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs per side")
    # Every argument is checked before the first run.
    crit = ks_critical_value(runs, runs, significance)
    if reference is not None and reference.shape != (runs, config.length, config.dim):
        raise ValueError("reference corpus shape does not match the run configuration")
    spec_seeds = [replicate_seed(config.seed, _SPEC_SIDE_TAG, r) for r in range(runs)]
    spec_tok = speculative_token_matrix(target, draft, config, spec_seeds, jobs=jobs)
    ref_tok = reference_tokens(target, config, runs, jobs=jobs) if reference is None else reference
    tests = []
    projection = None
    if config.dim > 1:
        # one fixed random direction, testing the coordinates jointly
        direction = np.random.default_rng(config.seed).standard_normal(config.dim)
        projection = direction / np.linalg.norm(direction)
    for pos in range(config.length):
        for coord in range(config.dim):
            stat, pval = ks_two_sample(spec_tok[:, pos, coord], ref_tok[:, pos, coord])
            tests.append(
                PositionKS(
                    position=pos, coordinate=coord, statistic=stat, pvalue=pval, critical=crit
                )
            )
        if projection is not None:
            stat, pval = ks_two_sample(
                spec_tok[:, pos, :] @ projection, ref_tok[:, pos, :] @ projection
            )
            tests.append(
                PositionKS(
                    position=pos, coordinate=-1, statistic=stat, pvalue=pval, critical=crit
                )
            )
    return DistCheckResult(runs=runs, significance=significance, tests=tuple(tests))
