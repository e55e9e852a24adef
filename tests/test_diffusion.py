import math
import pickle
from dataclasses import asdict, replace

import numpy as np
import pytest

from cspdec.diffusion import (
    ChainDivergenceError,
    ChainPlan,
    DenoiserSpec,
    NoiseRecord,
    analytic_marginal,
    draw_noise_record,
    run_chain,
    tail_log_density_ratio,
    trajectory_logpdf_terms,
)
from cspdec.engine import acceptance_log_ratio
from cspdec.gaussian import VARIANCE_FLOOR, GaussianParams, gaussian_logpdf

from conftest import random_denoiser


def passthrough_spec(steps=2, dim=1):
    """Identity chain: A=1, C=b=0, variance at the floor."""
    shape = (steps, dim)
    return DenoiserSpec(
        state_coef=np.ones(shape),
        cond_coef=np.zeros(shape),
        offset=np.zeros(shape),
        variance=np.full(shape, VARIANCE_FLOOR),
    )


def decoupled_spec(offsets, variances):
    steps = len(offsets)
    return DenoiserSpec(
        state_coef=np.zeros((steps, 1)),
        cond_coef=np.zeros((steps, 1)),
        offset=np.asarray(offsets, dtype=float)[:, None],
        variance=np.asarray(variances, dtype=float)[:, None],
    )


class TestDrawNoiseRecord:
    def test_deterministic_per_seed(self):
        a = draw_noise_record(2, 1, np.random.default_rng(7))
        b = draw_noise_record(2, 1, np.random.default_rng(7))
        assert np.array_equal(a.x_init, b.x_init)
        assert np.array_equal(a.eps, b.eps)

    def test_distinct_seeds_differ(self):
        a = draw_noise_record(2, 1, np.random.default_rng(1))
        b = draw_noise_record(2, 1, np.random.default_rng(2))
        assert not (np.array_equal(a.x_init, b.x_init) and np.array_equal(a.eps, b.eps))

    def test_shapes(self):
        rec = draw_noise_record(3, 2, np.random.default_rng(0))
        assert rec.eps.shape == (3, 2)
        assert rec.x_init.shape == (2,)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            draw_noise_record(1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("steps, dim", [(2, 1), (3, 2), (7, 5), (20, 3)])
    def test_stream_order_is_x_init_then_step_noise(self, steps, dim):
        # Every seeded run replays this order: x_T's d normals, then the
        # (T, d) step noises, then whatever the caller draws next.
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        rec = draw_noise_record(steps, dim, rng)
        assert np.array_equal(rec.x_init, twin.standard_normal(dim))
        assert np.array_equal(rec.eps, twin.standard_normal((steps, dim)))
        assert rng.random() == twin.random()


class TestRunChain:
    def test_identity_chain_with_zero_noise_passes_state_through(self):
        spec = passthrough_spec(steps=3, dim=2)
        noise = NoiseRecord(x_init=[0.7, -1.1], eps=np.zeros((3, 2)))
        traj = run_chain(spec, [0.0, 0.0], noise)
        assert np.array_equal(traj.token, noise.x_init)

    def test_hand_iterated_two_step_chain(self):
        spec = decoupled_spec(offsets=[0.0, 0.0], variances=[1.0, 1.0])
        noise = NoiseRecord(x_init=[5.0], eps=[[0.3], [-0.7]])
        traj = run_chain(spec, [0.0], noise)
        assert traj.outputs[0] == pytest.approx([0.3])
        assert traj.token == pytest.approx([-0.7])

    def test_temperature_scales_noise_and_tail(self):
        spec = decoupled_spec(offsets=[0.0, 0.0], variances=[1.0, 1.0])
        noise = NoiseRecord(x_init=[5.0], eps=[[0.3], [-0.7]])
        base = run_chain(spec, [0.0], noise, temperature=1.0)
        hot = run_chain(spec, [0.0], noise, temperature=2.0)
        assert hot.outputs[0] == pytest.approx([0.6])
        assert hot.token == pytest.approx([-1.4])
        assert hot.log_var_tail - base.log_var_tail == pytest.approx(0.5 * math.log(4.0))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        spec = random_denoiser(rng, 5, 3)
        noise = draw_noise_record(5, 3, rng)
        cond = rng.uniform(-1, 1, 3)
        a = run_chain(spec, cond, noise, temperature=1.3)
        b = run_chain(spec, cond, noise, temperature=1.3)
        assert np.array_equal(a.outputs, b.outputs)
        assert a.log_var_tail == b.log_var_tail

    def test_divergence_names_the_step(self):
        spec = DenoiserSpec(
            state_coef=[[1e200], [1.0]],
            cond_coef=[[0.0], [0.0]],
            offset=[[0.0], [0.0]],
            variance=[[1.0], [1.0]],
        )
        noise = NoiseRecord(x_init=[1e200], eps=np.zeros((2, 1)))
        with np.errstate(over="ignore"), pytest.raises(ChainDivergenceError) as err:
            run_chain(spec, [0.0], noise)
        assert err.value.step == 2

    def test_divergence_names_the_first_non_finite_row(self):
        # Row 0 overflows (sqrt(1e300) * 1e160); row 1 is tanh(inf) + 0.5,
        # finite again, so only row 0 (t = 2) can be reported.
        spec = DenoiserSpec(
            state_coef=[[0.0], [1.0]],
            cond_coef=[[0.0], [0.0]],
            offset=[[0.0], [0.0]],
            variance=[[1e300], [1.0]],
            nonlinearity="tanh",
        )
        noise = NoiseRecord(x_init=[0.0], eps=[[1e160], [0.5]])
        with np.errstate(over="ignore"), pytest.raises(ChainDivergenceError) as err:
            run_chain(spec, [0.0], noise, position=4)
        assert err.value.step == 2
        assert err.value.position == 4

    def test_outputs_replay_reparameterization_exactly(self):
        rng = np.random.default_rng(11)
        spec = random_denoiser(rng, 4, 2)
        noise = draw_noise_record(4, 2, rng)
        traj = run_chain(spec, [0.1, -0.2], noise, temperature=0.8)
        for row in range(traj.steps):
            redo = np.sqrt(traj.variances[row]) * traj.eps[row] + traj.means[row]
            assert np.array_equal(redo, traj.outputs[row])

    def test_log_var_tail_matches_stored_step_params_exactly(self):
        rng = np.random.default_rng(12)
        spec = random_denoiser(rng, 6, 2)
        traj = run_chain(spec, [0.0, 0.0], draw_noise_record(6, 2, rng), temperature=1.1)
        recomputed = 0.5 * float(np.sum(np.log(traj.variances[:-1])))
        assert recomputed == traj.log_var_tail


class TestChainPlan:
    @staticmethod
    def per_call_chain(spec, cond, noise, tau):
        """Reference chain: every constant worked out per call, means by ``step_mean``."""
        variances = float(tau) ** 2 * spec.variance
        scales = np.sqrt(variances)
        means, outputs = np.empty(noise.eps.shape), np.empty(noise.eps.shape)
        x = noise.x_init
        for row in range(spec.steps):
            means[row] = spec.step_mean(row, x, cond)
            x = outputs[row] = scales[row] * noise.eps[row] + means[row]
        return means, outputs, variances, float(0.5 * np.log(variances[:-1]).sum())

    @pytest.mark.parametrize("tau", [0.7, 1.0, 1.3, 1e-7])
    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_chain_bits_equal_the_per_call_formulas(self, tau, nonlinearity):
        # At tau = 1e-7 every tau^2 * var lies below the variance floor, which
        # the chain's own variances do not apply.
        rng = np.random.default_rng(round(tau * 1e7))
        for steps in range(2, 9):
            for dim in range(1, 4):
                spec = replace(random_denoiser(rng, steps, dim), nonlinearity=nonlinearity)
                cond = rng.uniform(-1, 1, dim)
                noise = draw_noise_record(steps, dim, rng)
                traj = run_chain(spec, cond, noise, tau)
                means, outputs, variances, log_var_tail = self.per_call_chain(
                    spec, cond, noise, tau
                )
                assert np.array_equal(traj.means, means)
                assert np.array_equal(traj.outputs, outputs)
                assert np.array_equal(traj.variances, variances)
                assert traj.log_var_tail == log_var_tail

    def test_repeat_calls_share_one_plan_per_temperature(self):
        rng = np.random.default_rng(4)
        spec = random_denoiser(rng, 4, 2)
        noise = draw_noise_record(4, 2, rng)
        a, b = (run_chain(spec, [0.1, 0.2], noise, 1.3) for _ in range(2))
        cold = run_chain(spec, [0.1, 0.2], noise, 0.7)
        assert a.plan is b.plan is spec.plan(1.3)
        assert a.variances is b.variances
        assert cold.plan is spec.plan(0.7) and cold.plan is not a.plan
        assert not np.array_equal(cold.variances, a.variances)
        plan = a.plan
        arrays = [plan.variances, plan.last_log_norm, plan.last_two_var]
        for arr in arrays + [arr for row in plan.rows for arr in row]:
            assert not arr.flags.writeable

    @pytest.mark.parametrize("tau", [math.nan, 0.0, -0.0, -1.3])
    def test_bad_temperature_rejected_before_any_lookup(self, tau, monkeypatch):
        rng = np.random.default_rng(6)
        spec = random_denoiser(rng, 3, 1)
        noise = draw_noise_record(3, 1, rng)
        built = []
        monkeypatch.setattr(ChainPlan, "build", lambda *args: built.append(args))
        for call in (
            lambda: spec.plan(tau),
            lambda: run_chain(spec, [0.0], noise, tau),
        ):
            with pytest.raises(ValueError, match="temperature must be positive"):
                call()
        assert built == []

    def test_plans_stay_out_of_fields_and_pickles(self):
        rng = np.random.default_rng(9)
        spec = random_denoiser(rng, 5, 3)
        cond = rng.uniform(-1, 1, 3)
        noise = draw_noise_record(5, 3, rng)
        before = run_chain(spec, cond, noise, 1.3)
        fields = ["state_coef", "cond_coef", "offset", "variance", "nonlinearity"]
        assert list(asdict(spec)) == fields
        # The pool ships specs pickled; a copy builds its own plan, with the same bits.
        copy = pickle.loads(pickle.dumps(spec))
        after = run_chain(copy, cond, noise, 1.3)
        assert after.plan is not before.plan
        for name in ("means", "outputs", "variances"):
            assert np.array_equal(getattr(after, name), getattr(before, name))
        assert after.log_var_tail == before.log_var_tail
        assert not after.variances.flags.writeable


def final_step_logpdf(spec, cond, x_prev, x_out, temperature=1.0):
    """Final-step log-density of ``x_out`` given ``x_prev``, through the chain plan."""
    mean = spec.step_mean(spec.steps - 1, np.asarray(x_prev, float), np.asarray(cond, float))
    return spec.plan(temperature).last_logpdf(np.asarray(x_out, float), mean)


class TestLastStepLogpdf:
    def test_evaluation_at_the_mode(self):
        spec = decoupled_spec(offsets=[0.0, 0.0], variances=[1.0, 1.0])
        assert final_step_logpdf(spec, [0.0], [3.0], [0.0]) == pytest.approx(
            -0.9189385, abs=1e-6
        )

    def test_self_consistency_with_recorded_params(self):
        rng = np.random.default_rng(5)
        spec = random_denoiser(rng, 3, 1)
        cond = rng.uniform(-1, 1, 1)
        traj = run_chain(spec, cond, draw_noise_record(3, 1, rng))
        via_substitution = final_step_logpdf(spec, cond, traj.outputs[-2], traj.token)
        via_record = gaussian_logpdf(
            traj.token, GaussianParams(traj.means[-1], traj.variances[-1])
        )
        assert via_substitution == pytest.approx(via_record, abs=1e-12)

    def test_quarter_variance_point(self):
        # 1-D normal with mean 0, var 0.25 evaluated at 0.5
        spec = decoupled_spec(offsets=[0.0, 0.0], variances=[1.0, 0.25])
        assert final_step_logpdf(spec, [0.0], [9.9], [0.5]) == pytest.approx(
            -0.7257913, abs=1e-6
        )


class TestTailLogDensityRatio:
    def test_identical_chains_cancel(self):
        rng = np.random.default_rng(8)
        spec = random_denoiser(rng, 4, 2)
        noise = draw_noise_record(4, 2, rng)
        traj = run_chain(spec, [0.0, 0.0], noise)
        assert tail_log_density_ratio(traj, traj) == 0.0

    def test_three_step_variance_product(self):
        # q vars (t=3, t=2): 0.04, 0.25 ; p vars: 0.25, 1.0 ; last step excluded.
        spec_q = decoupled_spec(offsets=[0, 0, 0], variances=[0.04, 0.25, 7.0])
        spec_p = decoupled_spec(offsets=[0, 0, 0], variances=[0.25, 1.0, 3.0])
        noise = draw_noise_record(3, 1, np.random.default_rng(0))
        traj_q = run_chain(spec_q, [0.0], noise)
        traj_p = run_chain(spec_p, [0.0], noise)
        assert tail_log_density_ratio(traj_q, traj_p) == pytest.approx(
            math.log(0.2), abs=1e-12
        )

    def test_common_scaling_invariance(self):
        noise = draw_noise_record(3, 1, np.random.default_rng(1))
        base_q = decoupled_spec([0, 0, 0], [0.3, 0.6, 1.0])
        base_p = decoupled_spec([0, 0, 0], [0.5, 0.8, 1.0])
        doubled_q = decoupled_spec([0, 0, 0], [0.6, 1.2, 1.0])
        doubled_p = decoupled_spec([0, 0, 0], [1.0, 1.6, 1.0])
        one = tail_log_density_ratio(run_chain(base_q, [0.0], noise), run_chain(base_p, [0.0], noise))
        two = tail_log_density_ratio(
            run_chain(doubled_q, [0.0], noise), run_chain(doubled_p, [0.0], noise)
        )
        assert one == pytest.approx(two, abs=1e-12)

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(2)
        t3 = run_chain(random_denoiser(rng, 3, 1), [0.0], draw_noise_record(3, 1, rng))
        t4 = run_chain(random_denoiser(rng, 4, 1), [0.0], draw_noise_record(4, 1, rng))
        with pytest.raises(ValueError):
            tail_log_density_ratio(t3, t4)


class TestAnalyticMarginal:
    def test_passthrough_keeps_standard_normal(self):
        marginal = analytic_marginal(passthrough_spec(steps=3, dim=1), [0.0])
        assert marginal.mean[0] == pytest.approx(0.0, abs=1e-9)
        assert marginal.variance[0] == pytest.approx(1.0, rel=1e-6)

    def test_state_decoupled_last_step_dominates(self):
        spec = decoupled_spec(offsets=[0.0, 0.0], variances=[1.0, 1.0])
        marginal = analytic_marginal(spec, [0.0])
        assert marginal.mean[0] == 0.0
        assert marginal.variance[0] == 1.0

    def test_two_step_affine_composition(self):
        spec = DenoiserSpec(
            state_coef=[[0.5], [0.5]],
            cond_coef=[[0.0], [0.0]],
            offset=[[0.0], [0.0]],
            variance=[[0.25], [0.25]],
        )
        marginal = analytic_marginal(spec, [0.0])
        assert marginal.variance[0] == pytest.approx(0.375, abs=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(21)
        spec = DenoiserSpec(
            state_coef=[[0.8], [-0.45]],
            cond_coef=[[0.3], [0.6]],
            offset=[[0.1], [-0.2]],
            variance=[[0.7], [0.35]],
        )
        cond = np.array([0.4])
        marginal = analytic_marginal(spec, cond, temperature=1.2)
        n = 100_000
        draws = np.empty(n)
        for i in range(n):
            rec = draw_noise_record(2, 1, rng)
            draws[i] = run_chain(spec, cond, rec, temperature=1.2).token[0]
        stderr = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - marginal.mean[0]) < 3 * stderr
        assert draws.var(ddof=1) == pytest.approx(marginal.variance[0], rel=0.05)

    def test_tanh_chain_rejected(self):
        spec = DenoiserSpec(
            state_coef=[[0.5], [0.5]],
            cond_coef=[[0.0], [0.0]],
            offset=[[0.0], [0.0]],
            variance=[[0.25], [0.25]],
            nonlinearity="tanh",
        )
        with pytest.raises(ValueError):
            analytic_marginal(spec, [0.0])


class TestFullChainEquivalence:
    def test_simplified_ratio_matches_termwise_sum(self):
        # aligned trajectories: sum of per-step logpdf differences equals the
        # cached tail term plus the two last-step densities
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(100):
            steps = int(rng.integers(2, 20))
            dim = int(rng.integers(1, 4))
            spec_q = random_denoiser(rng, steps, dim)
            spec_p = random_denoiser(rng, steps, dim)
            cond_q = rng.uniform(-1, 1, dim)
            cond_p = rng.uniform(-1, 1, dim)
            tau = float(rng.choice([0.7, 1.0, 1.3]))
            noise = draw_noise_record(steps, dim, rng)
            traj_q = run_chain(spec_q, cond_q, noise, tau)
            traj_p = run_chain(spec_p, cond_p, noise, tau)
            termwise = float(
                trajectory_logpdf_terms(traj_p)[:-1].sum()
                - trajectory_logpdf_terms(traj_q)[:-1].sum()
            )
            shortcut = tail_log_density_ratio(traj_q, traj_p)
            worst = max(worst, abs(termwise - shortcut))
        assert worst < 1e-9

    def test_acceptance_ratio_matches_brute_force(self):
        from cspdec.oracle import full_chain_log_ratio

        rng = np.random.default_rng(34)
        for _ in range(50):
            steps = int(rng.integers(2, 16))
            dim = int(rng.integers(1, 4))
            spec_q = random_denoiser(rng, steps, dim)
            spec_p = random_denoiser(rng, steps, dim)
            cond_q = rng.uniform(-1, 1, dim)
            cond_p = rng.uniform(-1, 1, dim)
            noise = draw_noise_record(steps, dim, rng)
            traj_q = run_chain(spec_q, cond_q, noise)
            lr, _ = acceptance_log_ratio(traj_q, spec_p, cond_p, noise, traj_q.token)
            full = full_chain_log_ratio(spec_q, spec_p, cond_q, cond_p, noise, traj_q.token)
            assert lr == pytest.approx(full, abs=1e-9)


class TestSpecValidation:
    def test_single_step_rejected(self):
        with pytest.raises(ValueError):
            DenoiserSpec(
                state_coef=[[1.0]], cond_coef=[[0.0]], offset=[[0.0]], variance=[[1.0]]
            )

    def test_variance_floor_applied(self):
        spec = decoupled_spec(offsets=[0, 0], variances=[0.0, 1.0])
        assert spec.variance[0, 0] == VARIANCE_FLOOR

    def test_caller_arrays_are_copied_not_frozen(self):
        a, c, b, v = (np.full((2, 1), x) for x in (0.5, 0.2, -0.1, 0.8))
        spec = DenoiserSpec(state_coef=a, cond_coef=c, offset=b, variance=v)
        e = np.array([[0.3], [-0.7]])
        record = NoiseRecord(x_init=[0.4], eps=e)
        before = run_chain(spec, [0.1], record)
        plan = spec.plan(1.0)
        for arr in (a, c, b, v, e):
            assert arr.flags.writeable
            arr[...] = 9.0
        assert np.array_equal(spec.state_coef, [[0.5], [0.5]])
        assert np.array_equal(spec.variance, [[0.8], [0.8]])
        assert np.array_equal(record.eps, [[0.3], [-0.7]])
        assert spec.plan(1.0) is plan and np.array_equal(plan.variances, [[0.8], [0.8]])
        again = run_chain(spec, [0.1], record)
        assert np.array_equal(again.outputs, before.outputs)

    def test_noise_record_shape_mismatch_rejected(self):
        spec = passthrough_spec(steps=3, dim=1)
        noise = draw_noise_record(2, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_chain(spec, [0.0], noise)
