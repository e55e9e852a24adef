import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import cspdec.autoregressive as autoregressive
import cspdec.configio as configio
import cspdec.engine as engine
from cspdec.autoregressive import DRAFT_ACCEPTED, RESAMPLED, TARGET_FALLTHROUGH
from cspdec.diffusion import (
    DenoiserSpec,
    NoiseRecord,
    draw_noise_record,
    run_chain,
    tail_log_density_ratio,
)
from cspdec.engine import (
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
from cspdec.gaussian import GaussianParams, gaussian_logpdf
from cspdec.oracle import (
    Grid1D,
    beta_integral,
    distribution_check,
    empirical_acceptance,
    gaussian_density,
    reference_tokens,
)
from cspdec.parallel import speculative_token_matrix
from cspdec.rng import PositionStreams, replicate_seed
from cspdec.scenarios import decoupled_pair
from cspdec.autoregressive import SequenceState, sample_token, target_only_generate

from conftest import (
    BELOW_FLOOR,
    JOBS,
    drop_whole_chain_variance_product,
    random_denoiser,
    step_mean,
)


def fixed_gaussian_denoiser(mean, var, tail_var=1.0):
    """Two-step chain whose final step is N(mean, var) regardless of state."""
    return DenoiserSpec(
        state_coef=[[0.0], [0.0]],
        cond_coef=[[0.0], [0.0]],
        offset=[[0.0], [float(mean)]],
        variance=[[float(tail_var)], [float(var)]],
    )


class TestSpecDecodeConfig:
    BASE = dict(gamma=2, steps=3, dim=1, length=4)
    INTEGER_FIELDS = ["gamma", "steps", "dim", "length", "max_resample_trials", "seed"]

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    def test_numpy_integers_accepted(self, name):
        config = SpecDecodeConfig(**{**self.BASE, name: np.int64(3)})
        assert getattr(config, name) == 3

    @pytest.mark.parametrize("value", [2.5, "3", True])
    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    def test_non_integers_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SpecDecodeConfig(**{**self.BASE, name: value})

    @pytest.mark.parametrize("value", ["0.5", True, None])
    @pytest.mark.parametrize("name", ["rho", "temperature"])
    def test_non_numbers_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            SpecDecodeConfig(**{**self.BASE, name: value})

    def test_numpy_scalars_dump_the_bytes_of_their_python_twin(self, std_pair):
        target, draft, config = std_pair
        plain = replace(config, gamma=3, temperature=1.0, rho=0.25, seed=12)
        scalars = replace(
            config, gamma=np.int64(3), temperature=np.float32(1.0), rho=np.float64(0.25),
            seed=np.uint32(12),
        )
        assert type(scalars.gamma) is int and type(scalars.temperature) is float
        dumps = [configio.dump_json(generate(target, draft, c)[1].to_dict())
                 for c in (plain, scalars)]
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_non_bool_aligned_rejected(self, value):
        with pytest.raises(ValueError, match="aligned must be a bool"):
            SpecDecodeConfig(**{**self.BASE, "aligned": value})

    def test_numpy_bool_aligned_dumps_the_bytes_of_its_python_twin(self, std_pair):
        target, draft, config = std_pair
        plain = replace(config, aligned=False)
        scalar = replace(config, aligned=np.bool_(False))
        assert type(scalar.aligned) is bool
        dumps = [configio.dump_json(generate(target, draft, c)[1].to_dict())
                 for c in (plain, scalar)]
        assert dumps[0] == dumps[1]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SpecDecodeConfig(**{**self.BASE, "seed": -1})

    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    def test_with_seed_rejects_a_non_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SpecDecodeConfig(**self.BASE).with_seed(seed)

    def test_with_seed_keeps_a_numpy_integer_as_int(self):
        config = SpecDecodeConfig(**self.BASE).with_seed(np.uint64(7))
        assert type(config.seed) is int and config.seed == 7


class TestAcceptanceLogRatio:
    def test_identical_models_cancel_exactly(self, std_pair):
        target, _, _ = std_pair
        rng = np.random.default_rng(0)
        noise = draw_noise_record(target.steps, target.dim, rng)
        cond = np.array([0.3])
        traj = run_chain(target.denoiser, cond, noise)
        lr, _ = acceptance_log_ratio(traj, target.denoiser, cond, noise)
        assert lr == 0.0

    def test_hand_computed_two_normal_case(self):
        # equal tail variances, target last step N(0,1), draft N(1,0.25),
        # verified token 0.5
        target = fixed_gaussian_denoiser(0.0, 1.0)
        draft = fixed_gaussian_denoiser(1.0, 0.25)
        noise = NoiseRecord([[0.4], [0.9], [-1.0]])  # draft token = 1-0.5 = 0.5
        traj_q = run_chain(draft, [0.0], noise)
        assert traj_q.token[0] == pytest.approx(0.5)
        lr, traj_p = acceptance_log_ratio(traj_q, target, [0.0], noise)
        assert lr == pytest.approx(-1.0439385 + 0.7257913, abs=1e-6)
        assert math.exp(lr) == pytest.approx(0.7275, abs=1e-4)
        assert traj_p.steps == 2

    @pytest.mark.parametrize("tau", [0.7, 1.0, 1.3, 1e-5])
    def test_trajectory_rows_give_the_gaussian_params_bits(self, tau):
        # The final-step densities are read off the trajectory columns; they
        # must equal the GaussianParams path exactly.
        rng = np.random.default_rng(int(tau * 1e7))
        t2 = tau**2
        for _ in range(20):
            steps, dim = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            target, draft = random_denoiser(rng, steps, dim), random_denoiser(rng, steps, dim)
            cond_q, cond_p = rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)
            noise = draw_noise_record(steps, dim, rng)
            traj_q = run_chain(draft, cond_q, noise, tau)
            x = traj_q.token
            lr, traj_p = acceptance_log_ratio(traj_q, target, cond_p, noise, tau)
            x_prev = np.array([column[-2] for column in traj_p.output_columns])
            p_mean = step_mean(target, steps - 1, x_prev, cond_p)
            expected = (
                tail_log_density_ratio(traj_q, traj_p)
                + gaussian_logpdf(x, GaussianParams(p_mean, t2 * target.variance[-1]))
                - gaussian_logpdf(x, GaussianParams(traj_q.final_mean, traj_q.variances[-1]))
            )
            assert lr == expected

            x_prev, x_out = rng.normal(size=dim), rng.normal(size=dim)
            mean = step_mean(target, steps - 1, x_prev, cond_p)
            assert target.plan(tau).last_logpdf(x_out.tolist(), mean.tolist()) == gaussian_logpdf(
                x_out, GaussianParams(mean, t2 * target.variance[-1])
            )


class TestVerifyDrafts:
    def test_nonnegative_ratios_accept_everything(self):
        assert verify_drafts([0.0, 2.0, 0.5], [0.999, 0.999, 0.999]) == 3

    def test_hand_trace_of_the_min_rule(self):
        log_ratios = [math.log(1.2), math.log(0.5), math.log(0.9)]
        assert verify_drafts(log_ratios, [0.3, 0.6, 0.1]) == 1

    def test_certain_rejection_at_zero_ratio(self):
        assert verify_drafts([-math.inf], [0.2]) == 0

    def test_boundary_is_strict_rejection(self):
        # u == ratio accepts; only u > ratio rejects
        lr = math.log(0.5)
        assert verify_drafts([lr], [0.5]) == 1
        assert verify_drafts([lr], [0.5 + 1e-12]) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_drafts([0.0], [0.5, 0.5])


class TestResampleThreshold:
    def test_zero_when_draft_dominates(self):
        for log_ratio in (-1.0, -0.0, 0.0):
            assert resample_threshold(log_ratio) == 0.0

    def test_two_normal_point_value(self):
        # p = N(0,1), q = N(2,1), candidate -1: 1 - phi(3)/phi(1) = 1 - e^-4
        log_p = -0.5 * math.log(2 * math.pi) - 0.5
        log_q = -0.5 * math.log(2 * math.pi) - 4.5
        assert resample_threshold(log_p - log_q) == pytest.approx(0.9816844, abs=1e-6)

    def test_equal_tails_give_the_bits_of_the_q_over_p_form(self):
        # With a zero tail term the ratio is 0.0 + log p - log q, and
        # -fl(p - q) == fl(q - p), so 1 - 1/r has the bits of 1 - q/p.
        rng = np.random.default_rng(8)
        for log_p, log_q in rng.normal(-2.0, 3.0, (2000, 2)):
            log_ratio = 0.0 + log_p - log_q
            delta = log_q - 0.0 - log_p
            expected = 0.0 if delta >= 0.0 else -math.expm1(delta)
            assert resample_threshold(log_ratio) == expected


class TestRejectionResample:
    def test_empirical_trial_acceptance_near_normalizer(self):
        # per-trial success probability is the residual mass Z
        target, draft = decoupled_pair(0.0, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(10)
        accepted = 0
        trials = 0
        while accepted < 3000:
            _, t = rejection_resample(
                target.denoiser, [0.0], draft.denoiser, [0.0], 1.0, rng
            )
            accepted += 1
            trials += t
        z = 2 * 0.6914625 - 1  # 2*Phi(0.5) - 1
        assert accepted / trials == pytest.approx(z, abs=0.02)

    def test_exhaustion_on_identical_densities(self):
        target, draft = decoupled_pair(0.0, 1.0, 0.0, 1.0)
        rng = np.random.default_rng(1)
        with pytest.raises(ResampleExhaustedError) as err:
            rejection_resample(
                target.denoiser, [0.0], draft.denoiser, [0.0], 1.0, rng, max_trials=64
            )
        assert err.value.trials == 64
        assert err.value.mean_threshold == pytest.approx(0.0, abs=1e-12)

    def test_zero_uniform_never_accepts_at_a_zero_threshold(self):
        # Identical models make every threshold exactly 0; a uniform of 0.0
        # must not accept a candidate from a residual that has no mass.
        class ZeroUniforms:
            def __init__(self, rng):
                self.standard_normal = rng.standard_normal

            def random(self):
                return 0.0

        target, draft = decoupled_pair(0.0, 1.0, 0.0, 1.0)
        rng = ZeroUniforms(np.random.default_rng(2))
        with pytest.raises(ResampleExhaustedError) as err:
            rejection_resample(
                target.denoiser, [0.0], draft.denoiser, [0.0], 1.0, rng, max_trials=5
            )
        assert err.value.trials == 5
        assert err.value.mean_threshold == 0.0

    def test_each_trial_threshold_is_the_verification_ratio_of_its_candidate(
        self, monkeypatch
    ):
        # Unequal tail schedules make the tail term material.  Each trial's
        # threshold is resample_threshold of the ratio verification gives a
        # draft that proposed the candidate along the trial's record.
        target = fixed_gaussian_denoiser(0.0, 1.0, tail_var=1.0)
        draft = fixed_gaussian_denoiser(0.6, 1.0, tail_var=2.2)
        cond_p, cond_q, tau = [0.0], [0.0], 1.1
        records, thresholds = [], []

        def recording(draw):
            def drawn(*args):
                records.append(draw(*args))
                return records[-1]

            return drawn

        def spy(log_ratio):
            thresholds.append(resample_threshold(log_ratio))
            return thresholds[-1]

        monkeypatch.setattr(engine, "draw_noise_record", recording(engine.draw_noise_record))
        monkeypatch.setattr(engine, "resample_threshold", spy)
        rng = np.random.default_rng(21)
        trials = sum(
            rejection_resample(target, cond_p, draft, cond_q, tau, rng)[1] for _ in range(40)
        )
        assert len(records) == len(thresholds) == trials > 40
        assert 0.0 in thresholds and max(thresholds) > 0.0
        for record, threshold in zip(records, thresholds):
            traj_q = run_chain(draft, cond_q, record, tau)
            candidate = run_chain(target, cond_p, record, tau).token
            outputs = tuple(c[:-1] + (x,) for c, x in zip(traj_q.output_columns, candidate))
            proposed = replace(traj_q, output_columns=outputs)
            lr, traj_p = acceptance_log_ratio(proposed, target, cond_p, record, tau)
            assert tail_log_density_ratio(proposed, traj_p) != 0.0
            assert threshold == resample_threshold(lr)

    def test_outputs_concentrate_where_target_exceeds_draft(self):
        # residual of N(0,1) minus N(2,1) lives left of the crossing at x=1
        target, draft = decoupled_pair(0.0, 1.0, 2.0, 1.0)
        rng = np.random.default_rng(3)
        draws = np.array(
            [
                rejection_resample(target.denoiser, [0.0], draft.denoiser, [0.0], 1.0, rng)[0][0]
                for _ in range(500)
            ]
        )
        assert np.mean(draws < 1.0) > 0.95


class TestSpeculativeStep:
    def test_identical_models_accept_all_and_append_bonus(self, std_pair):
        target, _, config = std_pair
        state = SequenceState(capacity=10)
        stats = RunStats()
        state = speculative_step(
            target, target, state, replace(config, gamma=3, temperature=1.0),
            streams=PositionStreams(5), stats=stats,
        )
        assert stats.step_accepted[-1] == 3
        assert len(state) == 4
        assert state.origins == [DRAFT_ACCEPTED] * 3 + [TARGET_FALLTHROUGH]

    def test_certain_first_rejection_appends_one_resampled_token(self):
        # target's final step is a near-delta far from the draft's proposals
        target_model, draft_model = decoupled_pair(8.0, 1e-10, 0.0, 1.0)
        state = SequenceState(capacity=10)
        stats = RunStats()
        config = SpecDecodeConfig(gamma=3, steps=target_model.steps, dim=1, length=10)
        state = speculative_step(
            target_model, draft_model, state, config, streams=PositionStreams(7), stats=stats
        )
        assert stats.step_accepted[-1] == 0
        assert len(stats.resample_trials) == 1
        assert state.origins == [RESAMPLED]
        assert state.tokens[0][0] == pytest.approx(8.0, abs=1e-3)

    def test_accepted_tokens_bit_equal_draft_proposals(self, std_pair):
        target, draft, config = std_pair
        streams = PositionStreams(31)
        state = SequenceState(capacity=config.length)
        stats = RunStats()
        state = speculative_step(
            target, draft, state, replace(config, temperature=1.0), streams, stats
        )
        n = stats.step_accepted[-1]
        # replay the draft chains from the same per-position streams
        fresh = PositionStreams(31)
        context = []
        from cspdec.autoregressive import condition

        for i in range(min(config.gamma, n + 1)):
            cond = condition(draft.backbone, context, i)
            rec = draw_noise_record(draft.steps, draft.dim, fresh.stream(i))
            traj = run_chain(draft.denoiser, cond, rec)
            if i < n:
                assert np.array_equal(traj.token, state.tokens[i])
            context.append(traj.token)
        if n < config.gamma:
            assert state.origins[n] == RESAMPLED

    def test_full_acceptance_bonus_token_replays_through_sample_token(self, std_pair):
        # Identical models accept every draft; the bonus token is the target's
        # sample_token at the next position, on that position's stream.
        target, _, config = std_pair
        state = speculative_step(
            target, target, SequenceState(capacity=10), replace(config, gamma=3, temperature=0.9),
            streams=PositionStreams(13), stats=RunStats(),
        )
        assert state.origins == [DRAFT_ACCEPTED] * 3 + [TARGET_FALLTHROUGH]
        fresh = PositionStreams(13)
        for i, token in enumerate(state.tokens):
            _, traj = sample_token(target, state.tokens[:i], i, fresh, 0.9)
            assert np.array_equal(traj.token, token)

    def test_capacity_pre_condition(self, std_pair):
        target, draft, config = std_pair
        state = SequenceState(capacity=1)
        state.append(np.array([0.0]), TARGET_FALLTHROUGH)
        with pytest.raises(ValueError):
            speculative_step(
                target, draft, state, replace(config, gamma=2), PositionStreams(0), RunStats()
            )


class TestGenerate:
    def test_full_prefill_equals_target_only(self, std_pair):
        target, draft, config = std_pair
        cfg = replace(config, rho=1.0, seed=90)
        state, stats = generate(target, draft, cfg)
        reference = target_only_generate(target, cfg.length, PositionStreams(90))
        assert np.array_equal(state.tokens_array(), reference.tokens_array())
        assert all(origin == "prefilled" for origin in state.origins)
        assert stats.step_accepted == []

    def test_underflowing_temperature_raises_before_any_token(self, std_pair, monkeypatch):
        # 1e-170 squared is 0: every step variance would be 0, every tail term
        # NaN, and verify_drafts would accept every draft.  The fake append
        # raises, so a regression fails here instead of never reaching the length.
        target, draft, config = std_pair

        def refuse(self, *args):
            raise AssertionError("a token was appended")

        monkeypatch.setattr(SequenceState, "append", refuse)
        with pytest.raises(ValueError, match=BELOW_FLOOR.format("1e-170")):
            generate(target, draft, replace(config, temperature=1e-170, seed=7))

    def test_temperature_below_the_floor_raises_before_any_token(self, monkeypatch):
        # At 1e-7 every tau^2 * var lies below the variance floor: a chain
        # would sample with one variance and score with another.
        target, draft = decoupled_pair(0.0, 0.2, 0.0, 0.3)
        config = SpecDecodeConfig(gamma=1, steps=2, dim=1, length=1, temperature=1e-7, seed=3)

        def refuse(self, *args):
            raise AssertionError("a token was appended")

        monkeypatch.setattr(SequenceState, "append", refuse)
        with pytest.raises(ValueError, match=BELOW_FLOOR.format("1e-07")):
            generate(target, draft, config)

    def test_identical_models_accept_everything(self, std_pair):
        target, _, config = std_pair
        state, stats = generate(target, target, replace(config, seed=17))
        summary = empirical_acceptance(stats)
        assert summary.alpha == 1.0
        assert len(state) == config.length

    def test_ratio_criterion_soundness_replayable(self, std_pair):
        # every accepted proposal satisfies u <= exp(log_ratio); the first
        # examined-but-unaccepted one violates it
        target, draft, config = std_pair
        for seed in range(20):
            _, stats = generate(target, draft, config.with_seed(1000 + seed))
            for lr, u, exam, acc in zip(
                stats.proposal_log_ratios,
                stats.proposal_uniforms,
                stats.proposal_examined,
                stats.proposal_accepted,
            ):
                if acc:
                    assert u <= math.exp(min(lr, 0.0)) or lr >= 0.0
                elif exam:
                    assert u > math.exp(lr)

    def test_stats_account_for_every_position(self, std_pair):
        target, draft, config = std_pair
        state, stats = generate(target, draft, config.with_seed(55))
        assert len(stats.origins) == config.length
        assert len(stats.tokens) == config.length
        assert sum(stats.step_accepted) + len(stats.resample_positions) + sum(
            1 for o in stats.origins if o == TARGET_FALLTHROUGH
        ) == config.length
        assert len(stats.step_accepted) == len(stats.step_proposed)

    @pytest.mark.parametrize("variant", [{"aligned": False}, {"rho": 0.3}])
    @pytest.mark.parametrize("pair", ["std_pair", "prefix_pair"])
    def test_chain_calls_counted_one_per_run_chain(self, pair, variant, request, monkeypatch):
        # Every chain is one run_chain call, as the benchmark's trace assumes.
        target, draft, config = request.getfixturevalue(pair)
        calls = Counter()

        def counting(run_chain):
            def counted(spec, *args, **kwargs):
                calls[id(spec)] += 1
                return run_chain(spec, *args, **kwargs)

            return counted

        for module in (engine, autoregressive):
            monkeypatch.setattr(module, "run_chain", counting(module.run_chain))
        resampled = 0
        for r in range(30):
            calls.clear()
            cfg = replace(config, seed=replicate_seed(515, 0, r), **variant)
            _, stats = generate(target, draft, cfg)
            assert calls[id(draft.denoiser)] == stats.draft_chain_calls
            assert calls[id(target.denoiser)] == stats.target_chain_calls
            assert sum(calls.values()) == stats.draft_chain_calls + stats.target_chain_calls
            resampled += sum(stats.resample_trials)
        assert resampled > 0

    def test_alignment_raises_acceptance(self, std_pair):
        target, draft, config = std_pair
        seeds = [replicate_seed(4242, 0, r) for r in range(300)]
        aligned = [generate(target, draft, config.with_seed(s))[1] for s in seeds]
        unaligned = [
            generate(target, draft, replace(config, aligned=False, seed=s))[1]
            for s in seeds
        ]
        gap = (
            empirical_acceptance(aligned).alpha
            - empirical_acceptance(unaligned).alpha
        )
        assert gap > 0.05

    def test_single_token_acceptance_matches_overlap_oracle(self):
        # quick version of the shared-prefix beta check (tight one in the
        # acceptance suite)
        target, draft = decoupled_pair(0.0, 1.0, 0.6, 1.0)
        config = SpecDecodeConfig(gamma=1, steps=2, dim=1, length=1, seed=0)
        accepted = 0
        for r in range(3000):
            _, stats = generate(target, draft, config.with_seed(replicate_seed(9, 0, r)))
            accepted += sum(stats.proposal_accepted)
        beta = beta_integral(
            gaussian_density(0.0, 1.0),
            gaussian_density(0.6, 1.0),
            Grid1D.covering([0.0, 0.6], [1.0, 1.0]),
        )
        assert accepted / 3000 == pytest.approx(beta, abs=0.03)


class TestMultiDimensional:
    @staticmethod
    def two_dim_pair():
        from cspdec.autoregressive import ARBackboneSpec, Model

        def model(last_offset, last_var, prefix):
            return Model(
                denoiser=DenoiserSpec(
                    state_coef=[[0.7, 0.5], [0.4, 0.3], [0.3, 0.4]],
                    cond_coef=[[0.4, 0.2], [0.3, 0.3], [0.5, 0.4]],
                    offset=[[0.0, 0.1], [0.1, 0.0], list(last_offset)],
                    variance=[[0.7, 0.6], [0.4, 0.5], list(last_var)],
                ),
                backbone=ARBackboneSpec(
                    prefix=prefix, weight=[0.5, 0.4], bias=[0.1, -0.1]
                ),
            )

        target = model([0.05, 0.0], [0.2, 0.25], [0.2, -0.1])
        draft = model([0.15, 0.1], [0.3, 0.2], [-0.1, 0.2])
        return target, draft

    def test_generation_and_preservation_in_two_dims(self):
        from cspdec.oracle import distribution_check

        target, draft = self.two_dim_pair()
        config = SpecDecodeConfig(gamma=2, steps=3, dim=2, length=3, seed=91)
        state, stats = generate(target, draft, config)
        assert state.tokens_array().shape == (3, 2)
        result = distribution_check(target, draft, config, runs=4000, jobs=2)
        # per-coordinate tests plus one random-projection test per position
        assert len(result.tests) == 3 * (2 + 1)
        assert result.passed


class TestFaultInjection:
    def test_dropping_variance_ratio_shifts_acceptance_when_tails_differ(self, monkeypatch):
        # a pair with unequal tail variance schedules: the tail term is
        # material, and omitting it visibly moves the acceptance rate
        target = fixed_gaussian_denoiser(0.0, 1.0, tail_var=1.0)
        draft = fixed_gaussian_denoiser(0.6, 1.0, tail_var=2.2)
        from cspdec.autoregressive import ARBackboneSpec, Model

        backbone = ARBackboneSpec(prefix=[0.0], weight=[0.0], bias=[0.0])
        pair = (Model(denoiser=target, backbone=backbone), Model(denoiser=draft, backbone=backbone))
        config = SpecDecodeConfig(gamma=1, steps=2, dim=1, length=1, seed=0)

        def run_alpha():
            hits = 0
            for r in range(2000):
                _, st = generate(*pair, config.with_seed(replicate_seed(77, 1, r)))
                hits += sum(st.proposal_accepted)
            return hits / 2000

        base = run_alpha()
        monkeypatch.setattr(engine, "tail_log_density_ratio", drop_whole_chain_variance_product)
        broken = run_alpha()
        # log tail term = 0.5*ln(2.2) ~ 0.39: acceptance must move by a lot
        assert abs(base - broken) > 0.05

    def test_dropping_variance_ratio_removes_whole_chain_product(self, std_pair, monkeypatch):
        # standard_pair shares its tail schedule, so the tail term is zero;
        # the fault must still remove the final-step normaliser difference,
        # 0.5*ln(var_q / var_p) with final-step variances 0.3 (draft) and
        # 0.2 (target), from the log-ratio and the resampling threshold alike
        target, draft, _ = std_pair
        shift = -0.5 * math.log(0.3 / 0.2)
        noise = NoiseRecord([[0.4], [0.9], [-1.0], [0.3]])
        cond_q, cond_p = [0.2], [-0.1]
        traj_q = run_chain(draft.denoiser, cond_q, noise)

        resample_ratios = []

        def spy(log_ratio):
            resample_ratios.append(log_ratio)
            return 1.0  # accept the first trial

        monkeypatch.setattr(engine, "resample_threshold", spy)

        def both():
            lr, _ = acceptance_log_ratio(traj_q, target.denoiser, cond_p, noise)
            rejection_resample(
                target.denoiser, cond_p, draft.denoiser, cond_q, 1.0, np.random.default_rng(5)
            )
            return lr

        base = both()
        monkeypatch.setattr(engine, "tail_log_density_ratio", drop_whole_chain_variance_product)
        broken = both()
        assert broken - base == pytest.approx(shift, abs=1e-12)
        resample_base, resample_broken = resample_ratios
        assert resample_broken - resample_base == pytest.approx(shift, abs=1e-12)


class TestTargetLawAtTemperature:
    """Temperature scales every step variance, so exactness is checked away from 1."""

    @pytest.mark.parametrize("tau", [0.7, 1.3])
    def test_output_law_matches_target_only(self, tau, std_pair):
        target, draft, config = std_pair
        config = replace(config, temperature=tau, seed=15)
        result = distribution_check(
            target, draft, config, runs=5000, significance=1e-4 / config.length, jobs=JOBS
        )
        assert result.passed, result.max_statistic

    def test_smallest_temperatures_keep_the_target_variance(self):
        # Final-step variances 0.2 (target) and 0.3 (draft), scaled by tau^2
        # to just above the variance floor; the output variance must stay
        # the target's.
        tau, runs = 2.5e-6, 4000
        target, draft = decoupled_pair(0.0, 0.2, 0.0, 0.3)
        config = SpecDecodeConfig(gamma=1, steps=2, dim=1, length=1, temperature=tau, seed=31)
        seeds = [replicate_seed(31, 0, r) for r in range(runs)]
        spec_var = speculative_token_matrix(target, draft, config, seeds, jobs=JOBS).var(ddof=1)
        ref_var = reference_tokens(target, config, runs, jobs=JOBS).var(ddof=1)
        spec_var, ref_var = spec_var / tau**2, ref_var / tau**2
        # Each sample variance has standard error var * sqrt(2 / (runs - 1)).
        stderr = math.hypot(spec_var, ref_var) * math.sqrt(2.0 / (runs - 1))
        assert abs(spec_var - ref_var) < 4.0 * stderr, (spec_var, ref_var)
