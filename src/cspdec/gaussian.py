"""Log-space Gaussian primitives shared by every other module.

All densities are diagonal Gaussians over d-dimensional tokens and every
probability is carried as a log-density in nats; nothing here exponentiates
an intermediate result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Variances are clamped to this floor at construction so log-densities stay
# finite even for degenerate inputs.
VARIANCE_FLOOR = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


def as_vector(values, dim: int | None = None, name: str = "value") -> np.ndarray:
    """Coerce to a finite, read-only 1-D float64 array (a token or d-vector)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one component")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite components")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GaussianParams:
    """Mean and diagonal covariance entries of a d-dimensional Gaussian."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = as_vector(self.mean, name="mean")
        var = np.atleast_1d(np.asarray(self.variance, dtype=np.float64))
        if var.shape != mean.shape:
            raise ValueError(
                f"variance shape {var.shape} does not match mean shape {mean.shape}"
            )
        if not np.isfinite(var).all():
            raise ValueError("variance contains non-finite components")
        var = np.maximum(var, VARIANCE_FLOOR)
        var.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gaussian_logpdf(x, params: GaussianParams) -> float:
    """Exact log-density of ``x`` under a diagonal Gaussian, in nats."""
    x = as_vector(x, dim=params.dim, name="x")
    return diag_logpdf_from_terms(x, params.mean, *diag_variance_terms(params.variance))


def diag_variance_terms(variance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The variance-only parts of a diagonal log-density: ``-0.5*log(2*pi*v)`` and ``2*v``.

    ``v`` is ``variance`` clamped to ``VARIANCE_FLOOR`` as
    :class:`GaussianParams` does.  A caller that evaluates many points under
    one variance computes these once; reading a density off a trajectory's
    arrays this way gives the same bits as building the parameters first.
    """
    variance = np.maximum(variance, VARIANCE_FLOOR)
    return -0.5 * (LOG_2PI + np.log(variance)), 2.0 * variance


def diag_logpdf_from_terms(
    x: np.ndarray, mean: np.ndarray, log_norm: np.ndarray, two_var: np.ndarray
) -> float:
    """``sum_i [log_norm_i - (x_i - mean_i)^2 / two_var_i]`` on checked arrays.

    With the terms of :func:`diag_variance_terms` this is
    ``sum_i [-0.5*log(2*pi*var_i) - (x_i - mean_i)^2 / (2*var_i)]``, computed
    entirely in log space.
    """
    dev = x - mean
    return float((log_norm - dev * dev / two_var).sum())


def log_std_ratio(var_num, var_den) -> float:
    """Log of the ratio of the two standard-deviation products.

    Returns ``0.5 * sum_i (log var_num_i - log var_den_i)``, the log-space
    form of ``sqrt(|diag(var_num)|) / sqrt(|diag(var_den)|)``.
    """
    num = as_vector(var_num, name="var_num")
    den = as_vector(var_den, dim=num.shape[0], name="var_den")
    if np.any(num < VARIANCE_FLOOR) or np.any(den < VARIANCE_FLOOR):
        raise ValueError("variances must be at or above the variance floor")
    return float(0.5 * np.sum(np.log(num) - np.log(den)))
