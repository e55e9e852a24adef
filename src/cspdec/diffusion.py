"""Reverse denoising chains.

A toy denoiser takes a state ``x_t`` from pure noise ``x_T ~ N(0, I)`` down to
a token ``x_0`` through T Gaussian steps.  Each step's mean is an affine (or
tanh-squashed affine) function of the current state and a conditioning vector,
and its diagonal variance is a fixed per-step schedule.  Chains can be run on
a pre-drawn noise record so that two different models traverse the exact same
noise, which is what makes their step-density ratio telescope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    LOG_2PI,
    VARIANCE_FLOOR,
    GaussianParams,
    as_vector,
    diag_logpdf_from_terms,
    diag_variance_terms,
)

NONLINEARITIES = ("identity", "tanh")


class ChainDivergenceError(RuntimeError):
    """A chain produced a non-finite state.

    Carries the 1-based timestep ``step`` (counting down from T) at which the
    state first left the finite range, and optionally the sequence position.
    """

    def __init__(self, step: int, position: int | None = None):
        self.step = step
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"denoising chain diverged at step t={step}{where}")


def _as_step_matrix(values, name: str) -> np.ndarray:
    """A checked ``(T, d)`` float64 copy of ``values``, which the caller keeps."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a (T, d) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ChainPlan:
    """The temperature-dependent constants of one denoiser's chains.

    Built once per (denoiser, temperature) by :meth:`DenoiserSpec.plan` and
    shared by every chain run there; every array is read-only.
    ``variances`` holds ``temperature**2 * variance``; ``rows`` holds each
    step's ``state_coef``, ``cond_coef`` and ``offset`` rows and the square
    root of its ``variances`` row, looked up once.  ``log_var_tail`` is
    ``0.5 * sum(log variances)`` over all steps but the last.
    ``last_log_norm`` and ``last_two_var`` are ``-0.5*log(2*pi*v)`` and
    ``2*v`` for the final step's variance ``v`` clamped to ``VARIANCE_FLOOR``.
    """

    variances: np.ndarray
    rows: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    log_var_tail: float
    last_log_norm: np.ndarray
    last_two_var: np.ndarray

    @classmethod
    def build(cls, spec: "DenoiserSpec", temperature: float) -> "ChainPlan":
        variances = (float(temperature) ** 2) * spec.variance
        scales = np.sqrt(variances)
        last_log_norm, last_two_var = diag_variance_terms(variances[-1])
        # Freeze before taking the row views, which inherit the flag.
        for arr in (variances, scales, last_log_norm, last_two_var):
            arr.flags.writeable = False
        return cls(
            variances=variances,
            rows=tuple(zip(spec.state_coef, spec.cond_coef, spec.offset, scales)),
            log_var_tail=float(0.5 * np.log(variances[:-1]).sum()),
            last_log_norm=last_log_norm,
            last_two_var=last_two_var,
        )

    def last_logpdf(self, x: np.ndarray, mean: np.ndarray) -> float:
        """Final-step log-density of ``x`` around ``mean``, as ``gaussian_logpdf`` gives it."""
        return diag_logpdf_from_terms(x, mean, self.last_log_norm, self.last_two_var)


@dataclass(frozen=True)
class DenoiserSpec:
    """Parameters of a T-step toy denoiser.

    All per-step arrays have shape ``(T, d)`` and are ordered in execution
    order: row 0 is the first denoising step (t = T), row T-1 the last step
    (t = 1), the one that emits the token.  The step mean is
    ``state_coef * x_t + cond_coef * cond + offset``, optionally squashed by
    tanh; the step variance is the fixed ``variance`` row.

    The arrays are copies of the caller's, frozen.  The per-temperature
    :class:`ChainPlan` cache is a plain attribute, not a field, so it takes
    no part in ``dataclasses.asdict``, equality or pickling.
    """

    state_coef: np.ndarray
    cond_coef: np.ndarray
    offset: np.ndarray
    variance: np.ndarray
    nonlinearity: str = "identity"

    def __post_init__(self):
        a = _as_step_matrix(self.state_coef, "state_coef")
        c = _as_step_matrix(self.cond_coef, "cond_coef")
        b = _as_step_matrix(self.offset, "offset")
        v = _as_step_matrix(self.variance, "variance")
        if not (a.shape == c.shape == b.shape == v.shape):
            raise ValueError("all per-step coefficient arrays must share one (T, d) shape")
        if a.shape[0] < 2:
            raise ValueError("a denoiser needs at least 2 steps")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        v = np.maximum(v, VARIANCE_FLOOR)
        for arr in (a, c, b, v):
            arr.flags.writeable = False
        object.__setattr__(self, "state_coef", a)
        object.__setattr__(self, "cond_coef", c)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "variance", v)
        object.__setattr__(self, "_plans", {})

    def __getstate__(self):
        return {**self.__dict__, "_plans": {}}

    def plan(self, temperature: float) -> ChainPlan:
        """The :class:`ChainPlan` at ``temperature``, built on first use."""
        if not temperature > 0.0:
            raise ValueError("temperature must be positive")
        plan = self._plans.get(temperature)
        if plan is None:
            plan = self._plans[temperature] = ChainPlan.build(self, temperature)
        return plan

    @property
    def steps(self) -> int:
        return self.state_coef.shape[0]

    @property
    def dim(self) -> int:
        return self.state_coef.shape[1]

    def step_mean(self, row: int, state: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """Mean of step ``row`` (execution order) given state and condition."""
        m = self.state_coef[row] * state + self.cond_coef[row] * cond + self.offset[row]
        if self.nonlinearity == "tanh":
            m = np.tanh(m)
        return m


@dataclass(frozen=True)
class NoiseRecord:
    """Pre-drawn standard-normal noise for one chain: ``x_T`` plus T step draws.

    ``eps`` rows are in execution order, matching :class:`DenoiserSpec`.
    """

    x_init: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        x = as_vector(self.x_init, name="x_init")
        e = _as_step_matrix(self.eps, "eps")
        if e.shape[1] != x.shape[0]:
            raise ValueError("eps dimension does not match x_init")
        e.flags.writeable = False
        object.__setattr__(self, "x_init", x)
        object.__setattr__(self, "eps", e)

    @property
    def steps(self) -> int:
        return self.eps.shape[0]

    @property
    def dim(self) -> int:
        return self.eps.shape[1]


def draw_noise_record(steps: int, dim: int, rng: np.random.Generator) -> NoiseRecord:
    """Draw ``x_T`` and all step noises i.i.d. standard normal from ``rng``.

    One ``(steps + 1, dim)`` draw: ``x_T`` is its first row and the step
    noises the rest, the same stream order as drawing ``x_T`` first.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = rng.standard_normal((steps + 1, dim))
    return NoiseRecord(z[0], z[1:])


@dataclass(frozen=True)
class DenoisingTrajectory:
    """Full record of one chain run.

    The mean of every step, the noise that drove it, every intermediate
    state, and the :class:`ChainPlan` it ran on.  ``variances`` (temperature
    already folded in) and ``log_var_tail`` are the plan's, shared read-only
    by every chain of that denoiser at that temperature; ``log_var_tail`` is
    ``0.5 * sum(log var)`` over all steps except the last, the quantity whose
    difference between two aligned chains is the telescoped density-ratio
    contribution of those steps.
    """

    x_init: np.ndarray
    means: np.ndarray
    eps: np.ndarray
    outputs: np.ndarray
    plan: ChainPlan

    @property
    def variances(self) -> np.ndarray:
        return self.plan.variances

    @property
    def log_var_tail(self) -> float:
        return self.plan.log_var_tail

    @property
    def steps(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def token(self) -> np.ndarray:
        """The chain output ``x_0``."""
        return self.outputs[-1]

    @property
    def last_input(self) -> np.ndarray:
        """State entering the final step (``x_1``)."""
        return self.outputs[-2]

    @property
    def last_params(self) -> GaussianParams:
        """Mean and variance of the final step, the one that emits the token."""
        return GaussianParams(self.means[-1], self.variances[-1])


def run_chain(
    spec: DenoiserSpec,
    cond,
    noise: NoiseRecord,
    temperature: float = 1.0,
    position: int | None = None,
) -> DenoisingTrajectory:
    """Run the denoising chain on a fixed noise record.

    The inputs are checked once on entry; the step rows and scales come from
    the denoiser's cached :class:`ChainPlan`, the chain itself is arithmetic
    only, and its states are checked for divergence once, after the last step.

    Parameters
    ----------
    spec : DenoiserSpec
        The denoiser to run.
    cond : array_like
        Conditioning d-vector, held fixed for the whole chain.
    noise : NoiseRecord
        Pre-drawn noise; must have exactly ``spec.steps`` rows.
    temperature : float
        Multiplies every step variance by ``temperature**2``, in sampling and
        in the recorded densities alike.  Must be positive.
    position : int, optional
        Sequence position used only to label divergence errors.

    Returns
    -------
    DenoisingTrajectory
        Fresh read-only ``means`` and ``outputs``; its ``variances`` is the
        plan's shared read-only array.
    """
    cond = as_vector(cond, dim=spec.dim, name="cond")
    eps = noise.eps
    if eps.shape != spec.state_coef.shape:
        raise ValueError(
            f"noise record shape {eps.shape} does not match "
            f"denoiser shape {spec.state_coef.shape}"
        )
    plan = spec.plan(temperature)

    means = np.empty(eps.shape)
    outputs = np.empty(eps.shape)
    tanh = spec.nonlinearity == "tanh"
    x = noise.x_init
    for row, (a, c, b, scale) in enumerate(plan.rows):
        # spec.step_mean(row, x, cond) on the plan's rows, the same bits
        mean = a * x + c * cond + b
        if tanh:
            mean = np.tanh(mean)
        x = scale * eps[row] + mean
        means[row] = mean
        outputs[row] = x
    if not np.isfinite(outputs).all():
        # Name the first non-finite row: a later one can come back finite
        # through tanh.
        first = int(np.isfinite(outputs).all(axis=1).argmin())
        raise ChainDivergenceError(step=eps.shape[0] - first, position=position)
    means.flags.writeable = False
    outputs.flags.writeable = False
    return DenoisingTrajectory(
        x_init=noise.x_init, means=means, eps=eps, outputs=outputs, plan=plan
    )


def last_step_logpdf(
    spec: DenoiserSpec,
    cond,
    x_prev,
    x_out,
    temperature: float = 1.0,
) -> float:
    """Log-density of ``x_out`` under the final step's conditional given ``x_prev``.

    This is evaluation by substitution: no sampling happens, the final-step
    Gaussian is simply read off at an externally supplied token, with the
    denoiser's :class:`ChainPlan` at ``temperature``.
    """
    cond = as_vector(cond, dim=spec.dim, name="cond")
    x_prev = as_vector(x_prev, dim=spec.dim, name="x_prev")
    x_out = as_vector(x_out, dim=spec.dim, name="x")
    last = spec.steps - 1
    mean = spec.step_mean(last, x_prev, cond)
    if not np.isfinite(mean).all():
        raise ValueError("mean contains non-finite components")
    return spec.plan(temperature).last_logpdf(x_out, mean)


def tail_log_density_ratio(traj_q: DenoisingTrajectory, traj_p: DenoisingTrajectory) -> float:
    """Telescoped log density ratio of all steps but the last under shared noise.

    For two chains driven by the same noise record, every step's density at
    its own output reduces to a normalization constant, so the log ratio of
    all steps except the final one is just the difference of the cached
    half-log-variance sums.
    """
    if traj_q.steps != traj_p.steps or traj_q.dim != traj_p.dim:
        raise ValueError("trajectories must share step count and dimension")
    return traj_q.log_var_tail - traj_p.log_var_tail


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
        mean = spec.step_mean(row, mean, cond)
        var = spec.state_coef[row] ** 2 * var + variances[row]
    return GaussianParams(mean, var)


def trajectory_logpdf_terms(traj: DenoisingTrajectory) -> np.ndarray:
    """Per-step log-density of each recorded output under its own step params.

    Mostly a verification helper: summing these reproduces the full-chain
    log-density of the realized trajectory (the ``x_T`` prior term excluded).
    """
    terms = np.empty(traj.steps)
    for row in range(traj.steps):
        dev = traj.outputs[row] - traj.means[row]
        terms[row] = np.sum(
            -0.5 * (LOG_2PI + np.log(traj.variances[row]))
            - dev * dev / (2.0 * traj.variances[row])
        )
    return terms
