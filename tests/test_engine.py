import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import cspdec.autoregressive as autoregressive
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
from cspdec.oracle import Grid1D, beta_integral, empirical_acceptance, gaussian_density
from cspdec.rng import PositionStreams, replicate_seed
from cspdec.scenarios import decoupled_pair
from cspdec.autoregressive import SequenceState, target_only_generate

from conftest import drop_whole_chain_variance_product, random_denoiser


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


class TestAcceptanceLogRatio:
    def test_identical_models_cancel_exactly(self, std_pair):
        target, _, _ = std_pair
        rng = np.random.default_rng(0)
        noise = draw_noise_record(target.steps, target.dim, rng)
        cond = np.array([0.3])
        traj = run_chain(target.denoiser, cond, noise)
        lr, _ = acceptance_log_ratio(traj, target.denoiser, cond, noise, traj.token)
        assert lr == 0.0

    def test_hand_computed_two_normal_case(self):
        # equal tail variances, target last step N(0,1), draft N(1,0.25),
        # verified token 0.5
        target = fixed_gaussian_denoiser(0.0, 1.0)
        draft = fixed_gaussian_denoiser(1.0, 0.25)
        noise = NoiseRecord(x_init=[0.4], eps=[[0.9], [-1.0]])  # draft token = 1-0.5 = 0.5
        traj_q = run_chain(draft, [0.0], noise)
        assert traj_q.token[0] == pytest.approx(0.5)
        lr, traj_p = acceptance_log_ratio(traj_q, target, [0.0], noise, traj_q.token)
        assert lr == pytest.approx(-1.0439385 + 0.7257913, abs=1e-6)
        assert math.exp(lr) == pytest.approx(0.7275, abs=1e-4)
        assert traj_p.steps == 2

    @pytest.mark.parametrize("tau", [0.7, 1.0, 1.3, 1e-7])
    def test_trajectory_rows_give_the_gaussian_params_bits(self, tau):
        # The final-step densities are read off the trajectory arrays; they
        # must equal the GaussianParams path exactly, variance floor included
        # (at tau = 1e-7 every tau^2 * var lies below it).
        rng = np.random.default_rng(int(tau * 1e7))
        t2 = tau**2
        for _ in range(20):
            steps, dim = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            target, draft = random_denoiser(rng, steps, dim), random_denoiser(rng, steps, dim)
            cond_q, cond_p = rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)
            noise = draw_noise_record(steps, dim, rng)
            traj_q = run_chain(draft, cond_q, noise, tau)
            x = traj_q.token
            lr, traj_p = acceptance_log_ratio(traj_q, target, cond_p, noise, x, tau)
            p_mean = target.step_mean(steps - 1, traj_p.outputs[-2], cond_p)
            expected = (
                tail_log_density_ratio(traj_q, traj_p)
                + gaussian_logpdf(x, GaussianParams(p_mean, t2 * target.variance[-1]))
                - gaussian_logpdf(x, GaussianParams(traj_q.means[-1], traj_q.variances[-1]))
            )
            assert lr == expected

            x_prev, x_out = rng.normal(size=dim), rng.normal(size=dim)
            mean = target.step_mean(steps - 1, x_prev, cond_p)
            assert target.plan(tau).last_logpdf(x_out, mean) == gaussian_logpdf(
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
        assert resample_threshold(0.0, 0.0, -1.0) == 0.0

    def test_two_normal_point_value(self):
        # p = N(0,1), q = N(2,1), candidate -1: 1 - phi(3)/phi(1) = 1 - e^-4
        log_p = -0.5 * math.log(2 * math.pi) - 0.5
        log_q = -0.5 * math.log(2 * math.pi) - 4.5
        assert resample_threshold(log_q, 0.0, log_p) == pytest.approx(
            0.9816844, abs=1e-6
        )


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
        target, _, _ = std_pair
        state = SequenceState(capacity=10)
        stats = RunStats()
        state = speculative_step(
            target, target, state, gamma=3, temperature=1.0, streams=PositionStreams(5),
            stats=stats,
        )
        assert stats.step_accepted[-1] == 3
        assert len(state) == 4
        assert state.origins == [DRAFT_ACCEPTED] * 3 + [TARGET_FALLTHROUGH]

    def test_certain_first_rejection_appends_one_resampled_token(self):
        # target's final step is a near-delta far from the draft's proposals
        target_model, draft_model = decoupled_pair(8.0, 1e-10, 0.0, 1.0)
        state = SequenceState(capacity=10)
        stats = RunStats()
        state = speculative_step(
            target_model, draft_model, state, gamma=3, temperature=1.0,
            streams=PositionStreams(7), stats=stats,
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
            target, draft, state, config.gamma, 1.0, streams, stats
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

    def test_capacity_pre_condition(self, std_pair):
        target, draft, _ = std_pair
        state = SequenceState(capacity=1)
        state.append(np.array([0.0]), TARGET_FALLTHROUGH)
        with pytest.raises(ValueError):
            speculative_step(target, draft, state, 2, 1.0, PositionStreams(0), RunStats())


class TestGenerate:
    def test_full_prefill_equals_target_only(self, std_pair):
        target, draft, config = std_pair
        cfg = replace(config, rho=1.0, seed=90)
        state, stats = generate(target, draft, cfg)
        reference = target_only_generate(target, cfg.length, PositionStreams(90))
        assert np.array_equal(state.tokens_array(), reference.tokens_array())
        assert all(origin == "prefilled" for origin in state.origins)
        assert stats.step_accepted == []

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
        noise = NoiseRecord(x_init=[0.4], eps=[[0.9], [-1.0], [0.3]])
        cond_q, cond_p = [0.2], [-0.1]
        traj_q = run_chain(draft.denoiser, cond_q, noise)

        thresholds = []

        def spy(log_q, log_tail, log_p):
            thresholds.append((log_q, log_tail, log_p))
            return 1.0  # accept the first trial

        monkeypatch.setattr(engine, "resample_threshold", spy)

        def both():
            lr, _ = acceptance_log_ratio(traj_q, target.denoiser, cond_p, noise, traj_q.token)
            rejection_resample(
                target.denoiser, cond_p, draft.denoiser, cond_q, 1.0, np.random.default_rng(5)
            )
            return lr

        base = both()
        monkeypatch.setattr(engine, "tail_log_density_ratio", drop_whole_chain_variance_product)
        broken = both()
        assert broken - base == pytest.approx(shift, abs=1e-12)
        (q0, tail0, p0), (q1, tail1, p1) = thresholds
        assert tail0 == 0.0
        assert (q1, p1) == (q0, p0)
        assert tail1 - tail0 == pytest.approx(shift, abs=1e-12)
