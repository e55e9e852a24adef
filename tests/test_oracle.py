import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import cspdec.oracle as oracle
from cspdec.diffusion import draw_noise_record, run_chain
from cspdec.engine import RunStats, acceptance_log_ratio
from cspdec.oracle import (
    Grid1D,
    IndistinguishableDensitiesError,
    beta_integral,
    chi_square_critical,
    chi_square_gof,
    empirical_acceptance,
    full_chain_log_ratio,
    gaussian_density,
    ks_critical_value,
    ks_two_sample,
    residual_distribution_grid,
)

from conftest import log_std_ratio, random_denoiser

SRC = Path(__file__).resolve().parent.parent / "src"
STD_PAIR_Z = 0.3829249  # 2*Phi(0.5) - 1 for N(0,1) vs N(1,1)


def std_grid(bins=4000):
    return Grid1D.covering([0.0, 1.0], [1.0, 1.0], bins=bins)


class TestGrid:
    def test_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, -1.0, 200)

    def test_requires_enough_bins(self):
        with pytest.raises(ValueError):
            Grid1D(-1.0, 1.0, 99)

    def test_covering_spans_eight_sigma(self):
        grid = Grid1D.covering([0.0, 3.0], [1.0, 2.0])
        assert grid.lo <= -8.0
        assert grid.hi >= 3.0 + 16.0


class TestResidualDistribution:
    def test_identical_densities_rejected(self):
        p = gaussian_density(0.0, 1.0)
        with pytest.raises(IndistinguishableDensitiesError):
            residual_distribution_grid(p, p, std_grid())

    def test_two_unit_normals_normalizer(self):
        res = residual_distribution_grid(
            gaussian_density(0.0, 1.0), gaussian_density(1.0, 1.0), std_grid()
        )
        assert res.normalizer == pytest.approx(STD_PAIR_Z, abs=1e-5)

    def test_well_separated_pair_matches_closed_form(self):
        # means 5 sigma apart: residual mass is 1 - 2*Phi(-2.5)
        grid = Grid1D.covering([0.0, 5.0], [1.0, 1.0])
        res = residual_distribution_grid(
            gaussian_density(0.0, 1.0), gaussian_density(5.0, 1.0), grid
        )
        assert res.normalizer == pytest.approx(1.0 - 2 * scipy_stats.norm.cdf(-2.5), abs=1e-5)

    def test_disjoint_pair_keeps_all_mass(self):
        grid = Grid1D.covering([0.0, 8.0], [1.0, 1.0])
        res = residual_distribution_grid(
            gaussian_density(0.0, 1.0), gaussian_density(8.0, 1.0), grid
        )
        assert res.normalizer == pytest.approx(1.0, abs=1e-3)

    def test_pmf_sums_to_one(self):
        res = residual_distribution_grid(
            gaussian_density(0.0, 1.0), gaussian_density(1.0, 1.0), std_grid()
        )
        assert res.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement_stability(self):
        coarse = residual_distribution_grid(
            gaussian_density(0.0, 1.0), gaussian_density(1.0, 1.0), std_grid(bins=20_000)
        )
        fine = residual_distribution_grid(
            gaussian_density(0.0, 1.0), gaussian_density(1.0, 1.0), std_grid(bins=40_000)
        )
        assert abs(coarse.normalizer - fine.normalizer) < 1e-6

    @pytest.mark.parametrize(
        "p_mean,p_var,q_mean,q_var",
        [(0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 0.5, 2.25), (0.3, 0.49, -0.4, 1.44)],
    )
    def test_normalizer_and_overlap_partition_unity(self, p_mean, p_var, q_mean, q_var):
        grid = Grid1D.covering(
            [p_mean, q_mean], [math.sqrt(p_var), math.sqrt(q_var)], bins=40_000
        )
        p = gaussian_density(p_mean, p_var)
        q = gaussian_density(q_mean, q_var)
        z = residual_distribution_grid(p, q, grid).normalizer
        beta = beta_integral(p, q, grid)
        assert z + beta == pytest.approx(1.0, abs=1e-9)


class TestFullChainLogRatio:
    def test_identical_specs_give_zero(self):
        rng = np.random.default_rng(1)
        spec = random_denoiser(rng, 4, 2)
        cond = rng.uniform(-1, 1, 2)
        noise = draw_noise_record(4, 2, rng)
        traj = run_chain(spec, cond, noise)
        assert full_chain_log_ratio(spec, spec, cond, cond, noise, traj.token) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_matches_simplified_acceptance_ratio(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            steps = int(rng.integers(2, 24))
            dim = int(rng.integers(1, 5))
            spec_q = random_denoiser(rng, steps, dim)
            spec_p = random_denoiser(rng, steps, dim)
            cond_q = rng.uniform(-1, 1, dim)
            cond_p = rng.uniform(-1, 1, dim)
            tau = float(rng.choice([0.7, 1.0, 1.3]))
            noise = draw_noise_record(steps, dim, rng)
            traj_q = run_chain(spec_q, cond_q, noise, tau)
            lr, _ = acceptance_log_ratio(traj_q, spec_p, cond_p, noise, tau)
            full = full_chain_log_ratio(
                spec_q, spec_p, cond_q, cond_p, noise, traj_q.token, tau
            )
            worst = max(worst, abs(lr - full))
        assert worst < 1e-9

    def test_per_step_terms_reduce_to_variance_ratio_under_shared_noise(self):
        from cspdec.oracle import trajectory_logpdf_terms

        rng = np.random.default_rng(3)
        spec_q = random_denoiser(rng, 5, 2, tanh_prob=0.0)
        spec_p = random_denoiser(rng, 5, 2, tanh_prob=0.0)
        noise = draw_noise_record(5, 2, rng)
        traj_q = run_chain(spec_q, [0.1, 0.2], noise)
        traj_p = run_chain(spec_p, [0.3, -0.2], noise)
        q_terms = trajectory_logpdf_terms(traj_q)
        p_terms = trajectory_logpdf_terms(traj_p)
        for row in range(4):  # all but the last step
            expected = log_std_ratio(traj_q.variances[row], traj_p.variances[row])
            assert p_terms[row] - q_terms[row] == pytest.approx(expected, abs=1e-10)


class TestKSTwoSample:
    def test_identical_sets_give_zero(self):
        x = np.linspace(-1, 1, 500)
        stat, _ = ks_two_sample(x, x)
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_same_distribution_stays_small(self):
        rng = np.random.default_rng(4)
        stat, _ = ks_two_sample(rng.standard_normal(50_000), rng.standard_normal(50_000))
        assert stat < 0.015

    def test_shifted_normals_detected(self):
        rng = np.random.default_rng(5)
        stat, pval = ks_two_sample(
            rng.standard_normal(10_000), rng.standard_normal(10_000) + 1.0
        )
        assert stat > 0.3
        assert pval < 1e-10

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    @pytest.mark.parametrize("ties", [False, True])
    def test_statistic_equals_scipy_ks_2samp(self, ties):
        rng = np.random.default_rng(41 + ties)
        for n in (1, 2, 7, 50, 333, 1000, 2500):
            for m in (2, 4, 50, 999, 1000, 3001):
                a, b = rng.standard_normal(n), rng.standard_normal(m) + 0.05
                if ties:  # values on a 0.1 grid repeat within and across the samples
                    a, b = np.round(a, 1), np.round(b, 1)
                stat, _ = ks_two_sample(a, b)
                # method="exact" (the default for small samples) rounds D to a grid.
                assert stat == scipy_stats.ks_2samp(a, b, method="asymp").statistic

    def test_pvalue_is_the_kolmogorov_limit_near_scipy_asymp(self):
        # The limiting law and scipy's finite-size one differ by about
        # 0.28 / sqrt(nm / (n + m)) at worst (0.0123 at n = m = 1000, near D = 0.033).
        rng = np.random.default_rng(43)
        for n, m in ((1000, 1000), (1000, 3001), (1500, 1500), (4000, 2000)):
            bound = 0.3 / math.sqrt(n * m / (n + m))
            for shift in (0.0, 0.03, 0.06, 0.1):
                a, b = rng.standard_normal(n), rng.standard_normal(m) + shift
                stat, pval = ks_two_sample(a, b)
                scipy_p = scipy_stats.ks_2samp(a, b, method="asymp").pvalue
                assert abs(pval - scipy_p) < bound
                limit = scipy_stats.kstwobign.sf(math.sqrt(n * m / (n + m)) * stat)
                assert pval == pytest.approx(limit, rel=1e-12)

    def test_critical_value_formula(self):
        # sqrt(-0.5*ln(alpha/2)) * sqrt(2/n) at alpha = 0.01
        assert ks_critical_value(50_000, 50_000, 0.01) == pytest.approx(
            1.6276 * math.sqrt(2 / 50_000), abs=1e-4
        )


class TestChiSquareGof:
    def test_critical_value_has_the_bits_of_scipy_chi2_ppf(self):
        for df in range(1, 200):
            for significance in (0.001, 0.01, 0.05, 0.1, 0.5):
                want = scipy_stats.chi2.ppf(1.0 - significance, df)
                assert chi_square_critical(df, significance) == want

    def pair(self):
        return residual_distribution_grid(
            gaussian_density(0.0, 1.0), gaussian_density(1.0, 1.0), std_grid()
        )

    def test_self_samples_pass(self):
        res = self.pair()
        samples = res.sample(np.random.default_rng(6), 50_000)
        stat, df = chi_square_gof(samples, res)
        assert stat < chi_square_critical(df, 0.01)

    def test_unmodified_target_samples_fail_decisively(self):
        res = self.pair()
        samples = np.random.default_rng(7).standard_normal(50_000)
        stat, df = chi_square_gof(samples, res)
        assert stat > 10 * chi_square_critical(df, 0.01)

    def test_expected_count_floor_respected(self):
        res = self.pair()
        samples = res.sample(np.random.default_rng(8), 2_000)
        _, df = chi_square_gof(samples, res)
        # with n=2000 and floor 5, at most n/5 groups can be retained
        assert 2 <= df + 1 <= 400

    def test_too_few_samples_rejected(self):
        res = self.pair()
        with pytest.raises(ValueError):
            chi_square_gof(res.sample(np.random.default_rng(9), 4), res)

    def test_critical_value_tabulated(self):
        assert chi_square_critical(1, 0.05) == pytest.approx(3.841459, abs=1e-6)
        assert chi_square_critical(10, 0.01) == pytest.approx(23.209251, abs=1e-6)

    @pytest.mark.parametrize("significance", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_critical_value_rejects_significance_outside_unit_interval(self, significance):
        # scipy returns inf at 0 and nan at 1.5 instead of raising
        with pytest.raises(ValueError, match="significance must lie in"):
            chi_square_critical(3, significance)

    @pytest.mark.parametrize("df", [0, -2, float("nan")])
    def test_critical_value_rejects_df_below_one(self, df):
        with pytest.raises(ValueError, match="df must be >= 1"):
            chi_square_critical(df, 0.01)


class TestEmpiricalAcceptance:
    def synthetic(self, accepted_flags, positions=None):
        stats = RunStats()
        n = len(accepted_flags)
        stats.proposal_positions = positions or list(range(n))
        stats.proposal_log_ratios = [0.0] * n
        stats.proposal_uniforms = [0.5] * n
        stats.proposal_examined = [True] * n
        stats.proposal_accepted = list(accepted_flags)
        return stats

    def test_all_accepted(self):
        summary = empirical_acceptance(self.synthetic([True, True, True]))
        assert summary.alpha == 1.0
        assert summary.alpha_examined == 1.0

    def test_all_rejected(self):
        summary = empirical_acceptance(self.synthetic([False, False]))
        assert summary.alpha == 0.0

    def test_per_position_rates(self):
        a = self.synthetic([True, False], positions=[0, 1])
        b = self.synthetic([False, True], positions=[0, 1])
        summary = empirical_acceptance([a, b])
        assert summary.per_position == {0: (1, 2), 1: (1, 2)}
        assert summary.proposed == 4


class TestDistributionCheckArguments:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"significance": 1.5}, "significance must lie in"),
            ({"reference": np.zeros((100, 1, 1))}, "reference corpus shape"),
        ],
    )
    def test_checked_before_any_run(self, kwargs, message, std_pair, monkeypatch):
        target, draft, config = std_pair
        runs = []

        def corpus(*args, **kw):
            runs.append(args)
            return np.zeros((100, config.length, config.dim))

        monkeypatch.setattr(oracle, "speculative_token_matrix", corpus)
        monkeypatch.setattr(oracle, "baseline_token_matrix", corpus)
        with pytest.raises(ValueError, match=message):
            oracle.distribution_check(target, draft, config, runs=100, jobs=1, **kwargs)
        assert runs == []


# Runs in a fresh interpreter, because this one has already loaded scipy.
LAZY_SCIPY_PROBE = """
import importlib, json, pkgutil, sys
import cspdec
for module in pkgutil.iter_modules(cspdec.__path__):
    importlib.import_module("cspdec." + module.name)
from cspdec import cli, oracle
from cspdec.scenarios import scenario_path
config = str(scenario_path("standard_pair"))
out = sys.argv[1]
codes = [cli.main(argv) for argv in (
    ["generate", "--config", config, "--out", out],
    ["sweep", "gamma", "1", "2", "--config", config, "--out", out],
    ["formula", "0.5", "2", "0.1"],
)]
loaded = sorted(k for k in sys.modules if k.startswith("scipy"))
oracle.ks_two_sample([0.0, 1.0], [0.5, 2.0])
oracle.chi_square_critical(3, 0.01)
after = {name: name in sys.modules for name in ("scipy.special", "scipy.stats")}
print(json.dumps({"codes": codes, "loaded": loaded, "after_tests": after}))
"""


def test_scipy_is_loaded_only_by_a_statistical_test(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY_PROBE, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    # The statistics need scipy.special only; scipy.stats would cost about 47 MB more.
    assert result["after_tests"] == {"scipy.special": True, "scipy.stats": False}
