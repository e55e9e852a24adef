import math
import pickle
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from cspdec.diffusion import (
    ChainDivergenceError,
    ChainPlan,
    DenoiserSpec,
    NoiseRecord,
    draw_noise_record,
    run_chain,
    tail_log_density_ratio,
)
from cspdec.engine import acceptance_log_ratio
from cspdec.gaussian import (
    LOG_2PI,
    VARIANCE_FLOOR,
    GaussianParams,
    as_vector,
    gaussian_logpdf,
)
from cspdec.oracle import analytic_marginal, trajectory_logpdf_terms

from conftest import BELOW_FLOOR, random_denoiser, step_mean


def rows(columns):
    """Per-coordinate float columns as the ``(rows, d)`` float64 array they transpose to."""
    return np.array(columns, dtype=np.float64).T


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
        assert a.columns == b.columns

    def test_distinct_seeds_differ(self):
        a = draw_noise_record(2, 1, np.random.default_rng(1))
        b = draw_noise_record(2, 1, np.random.default_rng(2))
        assert a.columns != b.columns

    def test_shapes(self):
        rec = draw_noise_record(3, 2, np.random.default_rng(0))
        assert len(rec.columns) == 2 and all(len(column) == 4 for column in rec.columns)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            draw_noise_record(1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("steps, dim", [(2, 1), (3, 2), (7, 5), (20, 3), (25, 16)])
    def test_stream_order_is_x_init_then_step_noise(self, steps, dim):
        # Every seeded run replays this order: x_T's d normals, then the
        # (T, d) step noises, then whatever the caller draws next.  The record
        # holds the drawn block as one tuple of floats per coordinate.
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        rec = draw_noise_record(steps, dim, rng)
        assert np.array_equal(rows(rec.columns)[0], twin.standard_normal(dim))
        assert np.array_equal(rows(rec.columns)[1:], twin.standard_normal((steps, dim)))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()
        assert type(rec.columns) is tuple and len(rec.columns) == dim
        for column in rec.columns:
            assert type(column) is tuple and len(column) == steps + 1
            assert all(type(value) is float for value in column)


class TestNoiseRecord:
    def test_block_is_read_into_one_float_column_per_coordinate(self):
        # x_T is row 0 of the block and the step noises are the rest; a 1-D
        # block is one coordinate.
        record = NoiseRecord([[0.4, 1.5], [0.3, -2.0], [-0.7, 0.25]])
        assert record.columns == ((0.4, 0.3, -0.7), (1.5, -2.0, 0.25))
        assert all(type(value) is float for column in record.columns for value in column)
        assert NoiseRecord(np.array([0.4, 0.3, -0.7])).columns == ((0.4, 0.3, -0.7),)
        assert [field.name for field in fields(record)] == ["columns"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            NoiseRecord([[0.4], [bad], [-0.7]])

    @pytest.mark.parametrize("block", [0.4, np.zeros((3, 1, 1)), [[[0.4]], [[0.3]]]])
    def test_block_that_is_not_2_d_rejected(self, block):
        with pytest.raises(ValueError, match="noise block must be a 2-D array"):
            NoiseRecord(block)

    def test_block_without_coordinates_rejected(self):
        # No denoiser has d = 0, and the record's columns could not give a
        # (T + 1, 0) block's row count back to the shape check.
        want = "noise block must have at least one column, got shape (4, 0)"
        with pytest.raises(ValueError, match=re.escape(want)):
            NoiseRecord(np.zeros((4, 0)))


class TestRunChain:
    def test_identity_chain_with_zero_noise_passes_state_through(self):
        spec = passthrough_spec(steps=3, dim=2)
        noise = NoiseRecord([[0.7, -1.1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        traj = run_chain(spec, [0.0, 0.0], noise)
        assert traj.token == (0.7, -1.1)

    def test_hand_iterated_two_step_chain(self):
        spec = decoupled_spec(offsets=[0.0, 0.0], variances=[1.0, 1.0])
        noise = NoiseRecord([[5.0], [0.3], [-0.7]])
        traj = run_chain(spec, [0.0], noise)
        assert traj.output_columns[0][0] == pytest.approx(0.3)
        assert traj.token == pytest.approx([-0.7])

    def test_temperature_scales_noise_and_tail(self):
        spec = decoupled_spec(offsets=[0.0, 0.0], variances=[1.0, 1.0])
        noise = NoiseRecord([[5.0], [0.3], [-0.7]])
        base = run_chain(spec, [0.0], noise, temperature=1.0)
        hot = run_chain(spec, [0.0], noise, temperature=2.0)
        assert hot.output_columns[0][0] == pytest.approx(0.6)
        assert hot.token == pytest.approx([-1.4])
        assert hot.log_var_tail - base.log_var_tail == pytest.approx(0.5 * math.log(4.0))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        spec = random_denoiser(rng, 5, 3)
        noise = draw_noise_record(5, 3, rng)
        cond = rng.uniform(-1, 1, 3)
        a = run_chain(spec, cond, noise, temperature=1.3)
        b = run_chain(spec, cond, noise, temperature=1.3)
        assert a.mean_columns == b.mean_columns
        assert a.output_columns == b.output_columns
        assert a.log_var_tail == b.log_var_tail

    def test_cond_is_read_without_a_copy_or_a_freeze(self):
        rng = np.random.default_rng(31)
        spec = random_denoiser(rng, 4, 3)
        noise = draw_noise_record(4, 3, rng)
        cond = rng.uniform(-1, 1, 3)
        before = cond.copy()
        traj = run_chain(spec, cond, noise)
        assert cond.flags.writeable and cond.base is None
        assert np.array_equal(cond, before)
        from_list = run_chain(spec, cond.tolist(), noise)
        assert from_list.output_columns == traj.output_columns
        cond[...] = 9.0
        assert run_chain(spec, before, noise).output_columns == traj.output_columns

    def test_zero_d_cond_is_one_component_at_d_1(self):
        rng = np.random.default_rng(32)
        spec = random_denoiser(rng, 3, 1)
        noise = draw_noise_record(3, 1, rng)
        want = run_chain(spec, [0.4], noise).output_columns
        for cond in (0.4, np.float64(0.4), np.array(0.4)):
            assert run_chain(spec, cond, noise).output_columns == want

    @pytest.mark.parametrize(
        "cond",
        [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0], [0.0], [0.0, 0.0, 0.0],
         [[0.0, 0.0]], [], 0.5],
    )
    def test_bad_cond_rejected_with_the_as_vector_message(self, cond):
        spec = passthrough_spec(steps=2, dim=2)
        noise = draw_noise_record(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError) as want:
            as_vector(cond, dim=2, name="cond")
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            run_chain(spec, cond, noise)

    def test_divergence_names_the_step(self):
        spec = DenoiserSpec(
            state_coef=[[1e200], [1.0]],
            cond_coef=[[0.0], [0.0]],
            offset=[[0.0], [0.0]],
            variance=[[1.0], [1.0]],
        )
        noise = NoiseRecord([[1e200], [0.0], [0.0]])
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
        noise = NoiseRecord([[0.0], [1e160], [0.5]])
        with np.errstate(over="ignore"), pytest.raises(ChainDivergenceError) as err:
            run_chain(spec, [0.0], noise, position=4)
        assert err.value.step == 2
        assert err.value.position == 4

    @pytest.mark.parametrize("dim, column", [(3, 0), (3, 2)])
    def test_divergence_names_the_first_non_finite_step_across_coordinates(self, dim, column):
        # In `column`, step row 1 overflows (sqrt(1e300) * 1e160) and tanh
        # brings rows 2-4 back to finite; in every other column, row 3 is the
        # first to overflow.  The chain runs one coordinate at a time, but the
        # error names row 1 (t = 4), the first non-finite step of any coordinate.
        steps = 5
        variance = np.ones((steps, dim))
        variance[1, column] = variance[3] = 1e300
        noise = np.zeros((steps + 1, dim))
        noise[2, column] = noise[4] = 1e160
        noise[4, column] = 0.0
        spec = DenoiserSpec(
            state_coef=np.ones((steps, dim)),
            cond_coef=np.zeros((steps, dim)),
            offset=np.zeros((steps, dim)),
            variance=variance,
            nonlinearity="tanh",
        )
        with np.errstate(over="ignore"), pytest.raises(ChainDivergenceError) as err:
            run_chain(spec, np.zeros(dim), NoiseRecord(noise), position=7)
        assert err.value.step == steps - 1
        assert err.value.position == 7

    def test_outputs_replay_reparameterization_exactly(self):
        rng = np.random.default_rng(11)
        spec = random_denoiser(rng, 4, 2)
        noise = draw_noise_record(4, 2, rng)
        traj = run_chain(spec, [0.1, -0.2], noise, temperature=0.8)
        eps, means = rows(traj.noise.columns)[1:], rows(traj.mean_columns)
        outputs = rows(traj.output_columns)
        for row in range(traj.steps):
            redo = np.sqrt(traj.variances[row]) * eps[row] + means[row]
            assert np.array_equal(redo, outputs[row])

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_records_and_trajectories_hold_only_float_columns(self, dim, nonlinearity):
        # A chain's values have one form, from the noise draw to the token: no
        # numpy array is kept beside the columns.  Only the plan holds arrays.
        rng = np.random.default_rng(13 + dim)
        spec = replace(random_denoiser(rng, 4, dim), nonlinearity=nonlinearity)
        noise = draw_noise_record(4, dim, rng)
        traj = run_chain(spec, rng.uniform(-1, 1, dim), noise)
        assert vars(noise) == {"columns": noise.columns}
        assert vars(traj) == {
            "noise": noise,
            "mean_columns": traj.mean_columns,
            "output_columns": traj.output_columns,
            "plan": spec.plan(1.0),
        }
        for columns, length in (
            (noise.columns, 5), (traj.mean_columns, 4), (traj.output_columns, 4)
        ):
            assert type(columns) is tuple and len(columns) == dim
            for column in columns:
                assert type(column) is tuple and len(column) == length
                assert all(type(value) is float for value in column)
        assert traj.token == tuple(column[-1] for column in traj.output_columns)
        assert traj.final_mean == tuple(column[-1] for column in traj.mean_columns)

    def test_log_var_tail_matches_stored_step_params_exactly(self):
        rng = np.random.default_rng(12)
        spec = random_denoiser(rng, 6, 2)
        traj = run_chain(spec, [0.0, 0.0], draw_noise_record(6, 2, rng), temperature=1.1)
        recomputed = 0.5 * float(np.sum(np.log(traj.variances[:-1])))
        assert recomputed == traj.log_var_tail


class TestChainPlan:
    @staticmethod
    def per_call_chain(spec, cond, noise, tau):
        """Reference chain on numpy rows: constants per call, means by ``step_mean``."""
        variances = float(tau) ** 2 * spec.variance
        scales = np.sqrt(variances)
        block = rows(noise.columns)
        means, outputs = np.empty(block[1:].shape), np.empty(block[1:].shape)
        x = block[0]
        for row in range(spec.steps):
            means[row] = step_mean(spec, row, x, cond)
            x = outputs[row] = scales[row] * block[row + 1] + means[row]
        return means, outputs, variances, float(0.5 * np.log(variances[:-1]).sum())

    @pytest.mark.parametrize("tau", [0.7, 1.0, 1.3, 1e-5])
    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_chain_bits_equal_the_per_call_formulas(self, tau, nonlinearity):
        rng = np.random.default_rng(round(tau * 1e7))
        for steps in range(2, 9):
            for dim in (1, 2, 3, 8, 16):
                spec = replace(random_denoiser(rng, steps, dim), nonlinearity=nonlinearity)
                cond = rng.uniform(-1, 1, dim)
                noise = draw_noise_record(steps, dim, rng)
                traj = run_chain(spec, cond, noise, tau)
                means, outputs, variances, log_var_tail = self.per_call_chain(
                    spec, cond, noise, tau
                )
                assert np.array_equal(rows(traj.mean_columns), means)
                assert np.array_equal(rows(traj.output_columns), outputs)
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
        assert not plan.variances.flags.writeable
        # The per-step constants are immutable Python floats, one tuple per coordinate.
        arrays = (spec.state_coef, spec.cond_coef, spec.offset, np.sqrt(plan.variances))
        assert len(plan.columns) == spec.dim
        for j, column in enumerate(plan.columns):
            assert len(column) == spec.steps
            for row, step in enumerate(column):
                assert all(type(value) is float for value in step)
                assert step == tuple(arr[row, j] for arr in arrays)

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

    @pytest.mark.parametrize("tau", [1e-170, 1e200, math.inf])
    def test_temperature_taking_a_variance_to_0_or_inf_rejected(self, tau):
        spec = random_denoiser(np.random.default_rng(6), 3, 1)
        with pytest.raises(ValueError, match=re.escape(BELOW_FLOOR.format(repr(tau)))):
            spec.plan(tau)

    def test_plan_densities_belong_to_the_sampled_variances(self):
        # Either the plan is refused, or the final-step density terms are
        # those of the variance the chain samples with, bit for bit.
        rng = np.random.default_rng(15)
        built = refused = 0
        for _ in range(400):
            spec = random_denoiser(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            tau = 10.0 ** rng.uniform(-8.0, 2.0)
            try:
                plan = spec.plan(tau)
            except ValueError:
                assert (tau**2 * spec.variance).min() < VARIANCE_FLOOR
                refused += 1
                continue
            built += 1
            last = plan.variances[-1]
            assert (plan.variances >= VARIANCE_FLOOR).all()
            log_norm = -0.5 * (LOG_2PI + np.log(last))
            assert plan.last_terms == tuple(zip(log_norm.tolist(), (2 * last).tolist()))
            assert all(type(value) is float for terms in plan.last_terms for value in terms)
        assert built and refused

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
        assert after.mean_columns == before.mean_columns
        assert after.output_columns == before.output_columns
        assert np.array_equal(after.variances, before.variances)
        assert after.log_var_tail == before.log_var_tail
        assert not after.variances.flags.writeable


def final_step_logpdf(spec, cond, x_prev, x_out, temperature=1.0):
    """Final-step log-density of ``x_out`` given ``x_prev``, through the chain plan."""
    mean = step_mean(spec, spec.steps - 1, np.asarray(x_prev, float), np.asarray(cond, float))
    return spec.plan(temperature).last_logpdf(np.asarray(x_out, float).tolist(), mean.tolist())


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
        x_prev = [column[-2] for column in traj.output_columns]
        via_substitution = final_step_logpdf(spec, cond, x_prev, traj.token)
        via_record = gaussian_logpdf(
            traj.token, GaussianParams(traj.final_mean, traj.variances[-1])
        )
        assert via_substitution == pytest.approx(via_record, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.7, 1.0, 1.3, 1e-5])
    def test_float_density_has_the_bits_of_gaussian_logpdf(self, tau):
        # d = 1..20 crosses numpy's pairwise-sum base case of 8 terms.
        rng = np.random.default_rng(int(tau * 1e6) + 23)
        for dim in range(1, 21):
            for _ in range(10):
                plan = random_denoiser(rng, 3, dim).plan(tau)
                mean = rng.uniform(-2.0, 2.0, dim)
                spread = 10.0 ** rng.uniform(-6.0, 1.0, dim)
                x = mean + spread * rng.standard_normal(dim)
                expected = gaussian_logpdf(x, GaussianParams(mean, plan.variances[-1]))
                assert plan.last_logpdf(x.tolist(), mean.tolist()) == expected

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
            lr, _ = acceptance_log_ratio(traj_q, spec_p, cond_p, noise)
            full = full_chain_log_ratio(spec_q, spec_p, cond_q, cond_p, noise, traj_q.token)
            assert lr == pytest.approx(full, abs=1e-9)


class TestSpecValidation:
    def test_single_step_rejected(self):
        with pytest.raises(ValueError):
            DenoiserSpec(
                state_coef=[[1.0]], cond_coef=[[0.0]], offset=[[0.0]], variance=[[1.0]]
            )

    def test_variance_floor_applied(self):
        for variance in (0.0, -1.0, VARIANCE_FLOOR / 2):
            with pytest.raises(ValueError, match="variance must be at least 1e-12"):
                decoupled_spec(offsets=[0, 0], variances=[1.0, variance])
        spec = decoupled_spec(offsets=[0, 0], variances=[VARIANCE_FLOOR, 1.0])
        assert spec.variance[0, 0] == VARIANCE_FLOOR

    def test_caller_arrays_are_copied_not_frozen(self):
        a, c, b, v = (np.full((2, 1), x) for x in (0.5, 0.2, -0.1, 0.8))
        spec = DenoiserSpec(state_coef=a, cond_coef=c, offset=b, variance=v)
        z = np.array([[0.4], [0.3], [-0.7]])
        record = NoiseRecord(z)
        before = run_chain(spec, [0.1], record)
        plan = spec.plan(1.0)
        for arr in (a, c, b, v, z):
            assert arr.flags.writeable
            arr[...] = 9.0
        assert np.array_equal(spec.state_coef, [[0.5], [0.5]])
        assert np.array_equal(spec.variance, [[0.8], [0.8]])
        assert record.columns == ((0.4, 0.3, -0.7),)
        assert spec.plan(1.0) is plan and np.array_equal(plan.variances, [[0.8], [0.8]])
        again = run_chain(spec, [0.1], record)
        assert again.output_columns == before.output_columns

    def test_noise_record_shape_mismatch_rejected(self):
        # A three-step chain in d dimensions needs a (4, d) block: x_T plus one
        # row per step.  The last case is a transposed (d, T + 1) block at d = 3,
        # rows and columns swapped; the message names the block as it was given.
        cases = [
            (1, draw_noise_record(2, 1, np.random.default_rng(0)), (3, 1)),
            (1, NoiseRecord(np.zeros((5, 1))), (5, 1)),
            (1, NoiseRecord(np.zeros((4, 2))), (4, 2)),
            (3, NoiseRecord(np.zeros((3, 4))), (3, 4)),
        ]
        for dim, noise, shape in cases:
            want = f"noise block shape {shape} does not fit denoiser shape {(3, dim)}"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                run_chain(passthrough_spec(steps=3, dim=dim), [0.0] * dim, noise)
