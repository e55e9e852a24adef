from dataclasses import replace

import numpy as np
import pytest

import cspdec.bench as bench
from cspdec.autoregressive import RESAMPLED
from cspdec.bench import expected_speedup, simulated_speedup, sweep, tokens_per_step
from cspdec.configio import sweep_to_csv
from cspdec.engine import SpecDecodeConfig
from cspdec.parallel import run_replicates
from cspdec.rng import replicate_seed
from cspdec.scenarios import decoupled_pair, stationary_pair


class TestExpectedSpeedup:
    def test_half_acceptance_single_draft_free_drafts(self):
        assert expected_speedup(0.5, 1, 0.0) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("gamma,c", [(1, 0.5), (4, 0.5), (32, 0.38)])
    def test_zero_acceptance_collapses_to_cost_share(self, gamma, c):
        assert expected_speedup(0.0, gamma, c) == pytest.approx(
            1.0 / (gamma * c + 1.0), abs=1e-12
        )

    def test_reported_large_gamma_point(self):
        # alpha=0.19, gamma=32, c=0.38: the regime where drafting cannot pay
        value = expected_speedup(0.19, 32, 0.38)
        assert value == pytest.approx(0.0938, abs=1e-4)
        assert value == pytest.approx(
            (1 - 0.19 ** 33) / ((1 - 0.19) * (32 * 0.38 + 1)), abs=1e-12
        )

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            expected_speedup(1.0, 4, 0.5)
        with pytest.raises(ValueError):
            expected_speedup(-0.1, 4, 0.5)

    def test_monotone_increasing_in_alpha(self):
        for gamma, c in [(1, 0.0), (4, 0.3), (16, 0.1)]:
            grid = np.linspace(0.0, 0.99, 100)
            values = [expected_speedup(a, gamma, c) for a in grid]
            assert all(b > a for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def small_stationary():
    target, draft, config = stationary_pair()
    return target, draft, replace(config, length=24)


class TestSweeps:
    def test_gamma_sweep_row_accounting_and_determinism(self, small_stationary):
        target, draft, config = small_stationary
        kwargs = dict(replicates=3, master_seed=11, jobs=1)
        one = sweep(target, draft, config, "gamma", [1, 2, 4], **kwargs)
        two = sweep(target, draft, config, "gamma", [1, 2, 4], **kwargs)
        assert len(one.points) == 3
        assert sweep_to_csv(one) == sweep_to_csv(two)
        assert [pt.axis_value for pt in one.points] == [1.0, 2.0, 4.0]

    def test_identical_models_accept_at_every_gamma(self, small_stationary):
        target, _, config = small_stationary
        result = sweep(
            target, target, config, "gamma", [1, 3], replicates=2, master_seed=0, jobs=1
        )
        assert all(pt.mean_alpha == 1.0 for pt in result.points)

    def test_full_prefill_reports_absent_alpha(self, small_stationary):
        target, draft, config = small_stationary
        result = sweep(
            target, draft, config, "prefill", [1.0], replicates=2, master_seed=3, jobs=1
        )
        assert result.points[0].mean_alpha is None
        row = sweep_to_csv(result).splitlines()[1]
        assert row.startswith("1.0,,")

    def test_identical_models_accept_at_every_temperature(self, small_stationary):
        target, _, config = small_stationary
        result = sweep(
            target, target, config, "temperature", [0.7, 1.0, 1.3],
            replicates=2, master_seed=5, jobs=1,
        )
        assert all(pt.mean_alpha == 1.0 for pt in result.points)

    def test_temperature_rejected_when_nonpositive(self, small_stationary):
        target, draft, config = small_stationary
        with pytest.raises(ValueError):
            sweep(target, draft, config, "temperature", [0.0], 1, 0)

    def test_unknown_axis_rejected(self, small_stationary):
        target, draft, config = small_stationary
        with pytest.raises(ValueError, match="unknown sweep axis 'trials'"):
            sweep(target, draft, config, "trials", [1], 1, 0)

    def test_every_point_is_checked_before_any_run(self, small_stationary, monkeypatch):
        target, draft, config = small_stationary
        runs = []
        monkeypatch.setattr(bench, "run_replicates", lambda *args, **kw: runs.append(args))
        with pytest.raises(ValueError, match="rho must lie in"):
            sweep(target, draft, config, "prefill", [0.0, 1.5], 1, 0)
        assert runs == []

    def test_axis_values_take_the_field_type(self, small_stationary):
        # An int rho in the base config must not make the sweep truncate 0.5.
        target, draft, config = small_stationary
        result = sweep(target, draft, replace(config, rho=0), "prefill", [0.5], 1, 0)
        assert result.points[0].axis_value == 0.5
        assert result.points[0].stats[0].config["rho"] == 0.5

    def test_temperature_moves_acceptance_on_mismatched_pair(self):
        # the direction is scenario-specific and deliberately not asserted
        from cspdec.scenarios import standard_pair

        target, draft, config = standard_pair()
        result = sweep(
            target, draft, config, "temperature", [0.7, 1.0, 1.3],
            replicates=300, master_seed=5, jobs=2,
        )
        alphas = [pt.mean_alpha for pt in result.points]
        assert max(alphas) - min(alphas) > 0.02


class TestTrialsHistogram:
    """The rejection sampler's trial counts, as ``RunStats.resample_trials`` records them."""

    def test_near_disjoint_pair_accepts_first_trial(self):
        # residual mass ~ 1: nearly every trial accepts immediately
        target, draft = decoupled_pair(0.0, 1.0, 8.0, 1.0)
        config = SpecDecodeConfig(gamma=1, steps=2, dim=1, length=4, seed=0)
        seeds = [replicate_seed(1, 0, r) for r in range(200)]
        stats = run_replicates(target, draft, config, seeds, jobs=1)
        trials = [t for st in stats for t in st.resample_trials]
        assert len(trials) > 50
        assert np.mean(trials) == pytest.approx(1.0, abs=0.05)

    def test_mass_sums_to_event_count(self, small_stationary):
        # one trial count per resampled token, each at least one trial
        target, draft, config = small_stationary
        seeds = [replicate_seed(2, 0, r) for r in range(50)]
        stats = run_replicates(target, draft, config, seeds, jobs=1)
        for st in stats:
            resampled = [pos for pos, o in enumerate(st.origins) if o == RESAMPLED]
            assert st.resample_positions == resampled
            assert len(st.resample_trials) == len(resampled)
            assert all(t >= 1 for t in st.resample_trials)
        assert sum(len(st.resample_trials) for st in stats) > 0

    def test_no_rejections_flagged_empty(self, small_stationary):
        target, _, config = small_stationary
        stats = run_replicates(target, target, config, [1, 2], jobs=1)
        assert all(st.resample_trials == [] for st in stats)


class TestCostModel:
    def test_tokens_per_step_is_accepted_plus_one(self, small_stationary):
        # away from the capacity boundary every step emits n+1 tokens
        target, draft, config = small_stationary
        seeds = [replicate_seed(3, 0, r) for r in range(30)]
        stats = run_replicates(target, draft, config, seeds, jobs=1)
        for st in stats:
            emitted = sum(1 for o in st.origins if o != "prefilled")
            bounded = sum(n + 1 for n in st.step_accepted)
            assert emitted <= bounded
            assert emitted >= bounded - config.gamma  # only the last step may clip
        assert tokens_per_step(stats[0]) is not None

    def test_simulated_speedup_tracks_formula(self, small_stationary):
        from cspdec.oracle import empirical_acceptance

        target, draft, config = small_stationary
        config = replace(config, length=96)
        seeds = [replicate_seed(4, 0, r) for r in range(120)]
        stats = run_replicates(target, draft, config, seeds, jobs=2)
        alpha = empirical_acceptance(stats).alpha_examined
        for cost in (0.0, 0.3):
            sim = simulated_speedup(stats, cost)
            assert sim == pytest.approx(
                expected_speedup(alpha, config.gamma, cost), rel=0.05
            )
