import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspdec.gaussian import VARIANCE_FLOOR, GaussianParams, gaussian_logpdf

from conftest import log_std_ratio

STD_NORMAL_MODE = -0.9189385332046727  # -0.5 * ln(2*pi)


class TestGaussianLogpdf:
    def test_standard_normal_at_mode(self):
        params = GaussianParams(mean=[0.0], variance=[1.0])
        assert gaussian_logpdf([0.0], params) == pytest.approx(STD_NORMAL_MODE, abs=1e-12)

    def test_two_dim_sum_of_independent_parts(self):
        # sum of two 1-D evaluations: 2 * mode - 1
        params = GaussianParams(mean=[0.0, 0.0], variance=[1.0, 1.0])
        assert gaussian_logpdf([1.0, 1.0], params) == pytest.approx(
            2 * STD_NORMAL_MODE - 1.0, abs=1e-12
        )

    def test_three_sigma_point(self):
        # ln phi(3) for x=-1, mean=2, var=1
        params = GaussianParams(mean=[2.0], variance=[1.0])
        assert gaussian_logpdf([-1.0], params) == pytest.approx(
            STD_NORMAL_MODE - 4.5, abs=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        params = GaussianParams(mean=[0.0, 0.0], variance=[1.0, 1.0])
        with pytest.raises(ValueError):
            gaussian_logpdf([0.0], params)

    def test_non_finite_input_rejected(self):
        params = GaussianParams(mean=[0.0], variance=[1.0])
        with pytest.raises(ValueError):
            gaussian_logpdf([np.nan], params)

    def test_pure_function_bit_identical(self):
        params = GaussianParams(mean=[0.3, -0.7], variance=[0.9, 2.0])
        x = [0.1, 0.2]
        assert gaussian_logpdf(x, params) == gaussian_logpdf(x, params)


class TestInvariants:
    def test_density_integrates_to_one_on_fine_grid(self):
        for mean, var in [(0.0, 1.0), (2.5, 0.04), (-1.0, 9.0)]:
            params = GaussianParams(mean=[mean], variance=[var])
            sigma = math.sqrt(var)
            grid = np.linspace(mean - 8 * sigma, mean + 8 * sigma, 200_001)
            dens = np.array([math.exp(gaussian_logpdf([x], params)) for x in grid[::100]])
            # trapezoid on the subsampled grid is plenty below 1e-6
            total = np.trapezoid(dens, grid[::100])
            assert total == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        mean=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        logvar=st.lists(st.floats(-4, 3), min_size=1, max_size=4),
        eps=st.lists(st.floats(-4, 4), min_size=1, max_size=4),
    )
    def test_reparameterization_density_identity(self, mean, logvar, eps):
        d = min(len(mean), len(logvar), len(eps))
        params = GaussianParams(mean=mean[:d], variance=np.exp(logvar[:d]))
        e = np.asarray(eps[:d])
        lhs = gaussian_logpdf(np.sqrt(params.variance) * e + params.mean, params)
        rhs = float(np.sum(-0.5 * math.log(2 * math.pi) - e * e / 2.0)) + log_std_ratio(
            np.ones(d), params.variance
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_maximized_at_mean(self):
        params = GaussianParams(mean=[0.4, -1.2, 3.0], variance=[0.5, 2.0, 0.1])
        at_mode = gaussian_logpdf(params.mean, params)
        for coord in range(3):
            for delta in (-1e-3, 1e-3):
                x = params.mean.copy()
                x = x + 0.0  # writable copy
                x[coord] += delta
                assert gaussian_logpdf(x, params) < at_mode


class TestConstruction:
    def test_variance_below_floor_rejected(self):
        for variance in (0.0, -1.0, VARIANCE_FLOOR / 2):
            with pytest.raises(ValueError, match="variance must be at least 1e-12"):
                GaussianParams(mean=[0.0, 0.0], variance=[1.0, variance])

    def test_variance_at_floor_kept(self):
        params = GaussianParams(mean=[0.0], variance=[VARIANCE_FLOOR])
        assert params.variance[0] == VARIANCE_FLOOR

    def test_caller_variance_is_copied_not_frozen(self):
        var = np.array([0.5, 2.0])
        params = GaussianParams(mean=[0.0, 0.0], variance=var)
        assert var.flags.writeable and not params.variance.flags.writeable
        var[0] = 9.0
        assert params.variance[0] == 0.5

    def test_immutable_arrays(self):
        params = GaussianParams(mean=[0.0], variance=[1.0])
        with pytest.raises(ValueError):
            params.mean[0] = 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianParams(mean=[0.0, 1.0], variance=[1.0])
