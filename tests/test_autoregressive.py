import math
import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cspdec.autoregressive import (
    ARBackboneSpec,
    PREFILLED,
    TARGET_FALLTHROUGH,
    SequenceState,
    condition,
    prefill,
    prefill_count,
    sample_token,
    target_only_generate,
)
from cspdec.diffusion import draw_noise_record, run_chain
from cspdec.gaussian import as_vector
from cspdec.oracle import analytic_marginal, empirical_acceptance
from cspdec.rng import PositionStreams


class TestPositionStreams:
    @pytest.mark.parametrize("seed", [3.9, True, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            PositionStreams(seed)

    def test_numpy_integer_seed_stored_as_int(self):
        streams = PositionStreams(np.uint64(3))
        assert type(streams.master_seed) is int and streams.master_seed == 3
        assert streams.stream(4).random() == PositionStreams(3).stream(4).random()


class TestCondition:
    def test_position_zero_is_the_prefix(self):
        backbone = ARBackboneSpec(prefix=[0.7, -0.2], weight=[1.0, 1.0], bias=[0.0, 0.0])
        assert np.array_equal(condition(backbone, [], 0), [0.7, -0.2])

    def test_zero_weight_decouples_the_recurrence(self):
        backbone = ARBackboneSpec(prefix=[9.0], weight=[0.0], bias=[0.5])
        tokens = [np.array([1.0]), np.array([-3.0])]
        assert np.array_equal(condition(backbone, tokens, 1), [0.5])
        assert np.array_equal(condition(backbone, tokens, 2), [0.5])

    def test_hand_arithmetic(self):
        backbone = ARBackboneSpec(prefix=[0.0], weight=[2.0], bias=[1.0])
        assert np.array_equal(condition(backbone, [np.array([3.0])], 1), [7.0])

    def test_out_of_range_rejected(self):
        backbone = ARBackboneSpec(prefix=[0.0], weight=[1.0], bias=[0.0])
        with pytest.raises(ValueError):
            condition(backbone, [], 1)

    def test_tanh_squashes(self):
        backbone = ARBackboneSpec(
            prefix=[0.0], weight=[2.0], bias=[1.0], nonlinearity="tanh"
        )
        assert condition(backbone, [np.array([3.0])], 1)[0] == pytest.approx(np.tanh(7.0))

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    def test_float_condition_has_the_bits_of_the_numpy_formula(self, nonlinearity, dim):
        rng = np.random.default_rng(dim)
        for _ in range(50):
            backbone = ARBackboneSpec(
                prefix=rng.uniform(-1, 1, dim),
                weight=rng.uniform(-2, 2, dim),
                bias=rng.uniform(-1, 1, dim),
                nonlinearity=nonlinearity,
            )
            token = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 1, dim)
            want = backbone.weight * token + backbone.bias
            if nonlinearity == "tanh":
                want = np.tanh(want)
            for given in (token, tuple(token.tolist())):
                got = condition(backbone, [given], 1)
                assert type(got) is tuple and len(got) == dim
                assert np.array_equal(got, want)
            first = condition(backbone, [], 0)
            assert first == tuple(backbone.prefix.tolist())
            assert all(type(value) is float for value in first)


class TestSequenceState:
    @pytest.mark.parametrize(
        "token",
        [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0), (), (0.5,), (0.0, 1.0, 2.0)],
    )
    def test_bad_float_tuple_rejected_with_the_as_vector_message(self, token):
        state = SequenceState(capacity=3)
        state.append((0.1, 0.2), TARGET_FALLTHROUGH)
        with pytest.raises(ValueError) as want:
            as_vector(token, dim=2, name="token")
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            state.append(token, TARGET_FALLTHROUGH)
        assert state.tokens == [(0.1, 0.2)] and len(state.origins) == 1

    def test_float_tuple_is_kept_as_it_is(self):
        state = SequenceState(capacity=2)
        token = (0.25, -1.5)
        state.append(token, TARGET_FALLTHROUGH)
        assert state.tokens[0] is token

    def test_outside_array_is_accepted_and_copied(self):
        state = SequenceState(capacity=2)
        token = np.array([0.25, -1.5])
        state.append(token, TARGET_FALLTHROUGH)
        state.append([1, 2], TARGET_FALLTHROUGH)
        token[0] = 9.0
        assert state.tokens == [(0.25, -1.5), (1.0, 2.0)]
        assert all(type(v) is float for t in state.tokens for v in t)
        array = state.tokens_array()
        assert array.dtype == np.float64 and array.shape == (2, 2)
        assert np.array_equal(array, [[0.25, -1.5], [1.0, 2.0]])

    def test_bad_array_rejected_with_the_as_vector_message(self):
        state = SequenceState(capacity=2)
        for token in (np.array([math.nan]), np.zeros((1, 1)), np.array([])):
            with pytest.raises(ValueError) as want:
                as_vector(token, name="token")
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                state.append(token, TARGET_FALLTHROUGH)
        assert len(state) == 0 and state.tokens_array().shape == (0, 0)


class TestTargetOnlyGenerate:
    def test_deterministic_per_seed(self, std_pair):
        target, _, config = std_pair
        a = target_only_generate(target, 5, PositionStreams(123), config.temperature)
        b = target_only_generate(target, 5, PositionStreams(123), config.temperature)
        assert np.array_equal(a.tokens_array(), b.tokens_array())
        assert a.origins == [TARGET_FALLTHROUGH] * 5

    def test_tokens_replay_from_conditions_and_streams(self, std_pair):
        # regenerating each position from its recorded predecessors and its
        # own stream reproduces the stored token exactly
        target, _, _ = std_pair
        seed = 77
        state = target_only_generate(target, 6, PositionStreams(seed))
        fresh = PositionStreams(seed)
        for i, token in enumerate(state.tokens):
            cond = condition(target.backbone, state.tokens[:i], i)
            rec = draw_noise_record(target.steps, target.dim, fresh.stream(i))
            redo = run_chain(target.denoiser, cond, rec).token
            assert np.array_equal(redo, token)

    def test_first_token_marginal_matches_analytic(self, std_pair):
        # one-sample KS of position-0 tokens against the closed-form marginal
        target, _, _ = std_pair
        n = 25_000
        draws = np.empty(n)
        for r in range(n):
            state = target_only_generate(target, 1, PositionStreams(1000 + r))
            draws[r] = state.tokens[0][0]
        marginal = analytic_marginal(target.denoiser, target.backbone.prefix)
        stat = scipy_stats.kstest(
            draws, scipy_stats.norm(marginal.mean[0], np.sqrt(marginal.variance[0])).cdf
        ).statistic
        assert stat < 0.02


class TestPrefill:
    def test_rho_zero_is_empty(self, std_pair):
        target, _, _ = std_pair
        state = prefill(target, 8, 0.0, PositionStreams(5))
        assert len(state) == 0

    def test_rounding_half_up(self):
        assert prefill_count(0.05, 256) == 13  # 12.8 rounds up
        assert prefill_count(0.5, 5) == 3  # 2.5 rounds half up
        assert prefill_count(0.0, 10) == 0
        assert prefill_count(1.0, 10) == 10

    def test_full_prefill_equals_target_only(self, std_pair):
        target, _, _ = std_pair
        a = prefill(target, 7, 1.0, PositionStreams(42))
        b = target_only_generate(target, 7, PositionStreams(42))
        assert np.array_equal(a.tokens_array(), b.tokens_array())
        assert a.origins == [PREFILLED] * 7

    def test_prefilled_tokens_replay_through_sample_token(self, std_pair):
        # pre-fill samples each position with sample_token on its own stream
        target, _, _ = std_pair
        state = prefill(target, 8, 0.5, PositionStreams(61), temperature=1.3)
        assert len(state) == 4
        fresh = PositionStreams(61)
        for i, token in enumerate(state.tokens):
            cond, traj = sample_token(target, state.tokens[:i], i, fresh, 1.3)
            assert np.array_equal(cond, condition(target.backbone, state.tokens, i))
            assert np.array_equal(traj.token, token)

    def test_rho_out_of_range_rejected(self, std_pair):
        target, _, _ = std_pair
        with pytest.raises(ValueError):
            prefill(target, 8, 1.5, PositionStreams(0))


class TestPrefixDivergence:
    def test_position_zero_accepts_less_than_later_positions(self, prefill_run_stats):
        # backbones differing only in the prefix embedding depress acceptance
        # exactly at position 0
        per_position = empirical_acceptance(prefill_run_stats[0.0]).per_position
        rates = {pos: acc / exam for pos, (acc, exam) in per_position.items()}
        pos0 = rates.get(0)
        later = [rates[i] for i in range(2, 8) if i in rates]
        assert pos0 is not None and later
        assert all(pos0 < rate for rate in later)
