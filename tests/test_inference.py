"""Scoring, likelihoods, and the full exploration step."""

import json
import math
import random
import re

import numpy as np
import pytest

import oracle
from test_oracle import _models
from test_stdp import _packet
from tempocode.encoding import EncoderParams, encode
from tempocode.evidence import EvidenceState
from tempocode.inference import (
    LoopState,
    ObjectModel,
    alignment_score,
    alignment_scores,
    exploration_step,
    log_likelihoods_from_scores,
)
from tempocode.latency import arrival_time, decode_displacement
from tempocode.stdp import train_on_traversal
from tempocode.types import LatencyParams, SpikePacket, WeightMatrix
from tempocode.world import discrimination_pair


def _zero_model(n=3, label="m"):
    return ObjectModel(label, WeightMatrix.zeros(n))


def _single_weight_model(i, j, value, n=3):
    w = WeightMatrix.zeros(n)
    w.w[i, j] = value
    return ObjectModel("m", w)


def _packets_for(obj, interval=0.020):
    return [encode(c, arrival=k * interval) for k, c in enumerate(obj.contacts)]


#: One packet 20 ms after the first contact, with neuron 1 alone.
_ONE_AT_20MS = SpikePacket({1: 0.0}, arrival=0.020)


class TestAlignmentScore:
    @pytest.mark.parametrize(
        "prev, cur, model, expected",
        [
            (SpikePacket({0: 0.0}, arrival=0.0), _ONE_AT_20MS, _zero_model(), 0.0),
            (SpikePacket({0: 0.0}, arrival=0.0), _ONE_AT_20MS, _single_weight_model(0, 1, 0.3), 0.3),
            (SpikePacket({}), _ONE_AT_20MS, _single_weight_model(0, 1, 0.3), 0.0),
            (None, _ONE_AT_20MS, _single_weight_model(0, 1, 0.3), 0.0),
            # Packets that overlap in time: only 0 -> 2 is causal; 1 fires at 0.009, after 2 at 0.005.
            (SpikePacket({0: 0.0, 1: 0.009}, arrival=0.0), SpikePacket({2: 0.0}, arrival=0.005),
             ObjectModel("m", WeightMatrix(np.ones((3, 3)))), 1.0),
        ],
        ids=["zero-weights", "single-pair", "empty-packet", "no-packet", "causal-filter"],
    )
    def test_examples(self, prev, cur, model, expected):
        assert alignment_score(prev, cur, model) == expected

    def test_trained_matrices_order_traversals(self):
        obj_a, obj_b = discrimination_pair()
        packets_a = _packets_for(obj_a)
        packets_b = _packets_for(obj_b)
        model_a = ObjectModel("A", train_on_traversal(WeightMatrix.zeros(3), packets_a))
        model_b = ObjectModel("B", train_on_traversal(WeightMatrix.zeros(3), packets_b))
        score_aa = sum(alignment_score(p, q, model_a) for p, q in zip(packets_a, packets_a[1:]))
        score_ab = sum(alignment_score(p, q, model_b) for p, q in zip(packets_a, packets_a[1:]))
        assert score_aa > score_ab


def _alignment_reference(prev, cur, model):
    """The oracle's score: causal pairs' weights added in (pre, post) order from 0.0."""
    return oracle.causal_score(model.weights.w.tolist(), _packet(prev), _packet(cur))


class TestAlignmentScoreMatchesScalarLoop:
    """The masked gather against the oracle's double loop, compared as bytes (``test_oracle`` draws the rest)."""

    def test_non_causal_pairs_and_negative_zero(self):
        prev = SpikePacket({0: 0.0, 1: 0.009}, arrival=0.0)
        cur = SpikePacket({2: 0.0, 3: 0.002}, arrival=0.005)
        w = np.full((4, 4), -0.0)
        w[1, 2] = 5.0  # 1 fires at 0.009, after 2 at 0.005: not causal
        model = ObjectModel("m", WeightMatrix(w))
        score = alignment_score(prev, cur, model)
        assert np.float64(score).tobytes() == np.float64(0.0).tobytes()  # -0.0 terms give +0.0 as the loop did
        assert np.float64(score).tobytes() == np.float64(_alignment_reference(prev, cur, model)).tobytes()


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


class TestAlignmentScoresMatchScalarLoop:
    """One packet-pair block scored against many models, compared as bytes."""

    def test_missing_packets_and_no_models(self):
        models = [_single_weight_model(0, 1, 0.3), _zero_model()]
        packet = SpikePacket({0: 0.0}, arrival=0.020)
        assert alignment_scores(None, packet, models) == [0.0, 0.0]
        assert alignment_scores(packet, None, models) == [0.0, 0.0]
        assert alignment_scores(SpikePacket({}), packet, models) == [0.0, 0.0]
        assert alignment_scores(SpikePacket({0: 0.0}), packet, []) == []

    def test_models_of_different_sizes(self):
        prev = SpikePacket({0: 0.0, 2: 0.003}, arrival=0.0)
        cur = SpikePacket({1: 0.0, 2: 0.005}, arrival=0.020)
        small = ObjectModel("s", WeightMatrix(np.arange(9.0).reshape(3, 3)))
        large = ObjectModel("l", WeightMatrix(np.arange(25.0).reshape(5, 5)))
        got = alignment_scores(prev, cur, [small, large, small])
        expected = [_alignment_reference(prev, cur, m) for m in (small, large, small)]
        assert _bytes(got) == _bytes(expected)
        with pytest.raises(ValueError, match="packet neuron id 3 out of range"):
            alignment_scores(prev, SpikePacket({3: 0.0}, arrival=0.020), [large, small])


class TestWeightStack:
    """The loop reads the models' weights once, into one read-only stack (``test_oracle`` changes the models after)."""

    def test_the_stack_holds_each_model_row_major_and_is_read_only(self):
        models = _models(random.Random(3), 5, 3)
        state = LoopState(models=models)
        assert state.weight_stack.shape == (3, 25)
        assert state.weight_stack.tobytes() == np.stack([m.weights.w.ravel() for m in models]).tobytes()
        assert not state.weight_stack.flags.writeable
        with pytest.raises(ValueError):
            state.weight_stack[0, 0] = 1.0


class TestPacketIdRange:
    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_alignment_scores_name_the_id(self, bad_id):
        good = SpikePacket({0: 0.0, 1: 0.002}, arrival=0.0)
        bad = SpikePacket({bad_id: 0.0, 2: 0.004}, arrival=0.020)
        for prev, cur in ((good, bad), (bad, good)):
            with pytest.raises(ValueError, match=f"packet neuron id {bad_id} out of range"):
                alignment_score(prev, cur, _zero_model())
            with pytest.raises(ValueError, match=f"packet neuron id {bad_id} out of range"):
                alignment_scores(prev, cur, [_zero_model(), _zero_model()])


class TestLogLikelihoods:
    def test_equal_scores_are_uniform(self):
        prev = SpikePacket({0: 0.0}, arrival=0.0)
        cur = SpikePacket({1: 0.0}, arrival=0.020)
        ll = log_likelihoods_from_scores(alignment_scores(prev, cur, [_zero_model(), _zero_model()]))
        np.testing.assert_allclose(ll, [math.log(0.5)] * 2, rtol=1e-12)
        models = [_single_weight_model(0, 1, 5.0)] * 3
        empty = log_likelihoods_from_scores(alignment_scores(SpikePacket({}), cur, models))
        np.testing.assert_allclose(empty, [math.log(1 / 3)] * 3, rtol=1e-12)

    @pytest.mark.parametrize(
        "scores, temperature, expected, atol",
        [([1.0, 0.0], 1.0, [math.log(math.e / (math.e + 1)), math.log(1 / (math.e + 1))], 1e-12),
         ([5.0, 0.0, -3.0], 1e9, [math.log(1 / 3)] * 3, 1e-8)],
        ids=["softmax-values", "high-temperature-flattens"],
    )
    def test_examples(self, scores, temperature, expected, atol):
        np.testing.assert_allclose(log_likelihoods_from_scores(scores, temperature=temperature), expected, atol=atol)

    def test_likelihoods_sum_to_one(self):
        ll = log_likelihoods_from_scores([3.1, -2.0, 0.4, 0.0], temperature=0.7)
        assert np.exp(ll).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_score_raises_naming_it(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"score 1 / temperature must be finite, got {bad} / 1.0")):
            log_likelihoods_from_scores([0.0, bad, 1.0])

    def test_a_score_that_overflows_at_the_temperature_raises(self):
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            ValueError, match=re.escape("score 0 / temperature must be finite, got 1e+300 / 1e-10")
        ):
            log_likelihoods_from_scores([1e300, 0.0], temperature=1e-10)


def _trained_loop():
    obj_a, obj_b = discrimination_pair()
    model_a = ObjectModel("A", train_on_traversal(WeightMatrix.zeros(3), _packets_for(obj_a)))
    model_b = ObjectModel("B", train_on_traversal(WeightMatrix.zeros(3), _packets_for(obj_b)))
    return LoopState(models=[model_a, model_b])


class TestExplorationStep:
    def test_cold_start(self):
        state = _trained_loop()
        best, diag = exploration_step(state, [0.9, 0.2, 0.1])
        assert diag.dt is None
        assert diag.displacement is None
        assert diag.scores == [0.0, 0.0]
        np.testing.assert_allclose(state.evidence.evidence, [0.5, 0.5], atol=1e-12)
        assert best == 0

    def test_noiseless_traversal_recovers_object(self):
        obj_a = discrimination_pair()[0]
        state = _trained_loop()
        best = None
        for contact in obj_a.contacts:
            best, _ = exploration_step(state, contact)
        assert state.models[best].label == "A"

    def test_empty_packet_skips_and_decays_to_uniform(self):
        state = _trained_loop()
        exploration_step(state, [0.9, 0.2, 0.1])
        exploration_step(state, [0.2, 0.8, 0.2])
        evidence = state.evidence.evidence.copy()
        lam = state.evidence.lambdas.copy()
        uniform = np.full(2, 0.5)
        for _ in range(3):
            _, diag = exploration_step(state, [0.0, 0.0, 0.0])
            assert diag.dt is None
            assert diag.displacement is None
            assert diag.scores == [0.0, 0.0]
            expected = uniform + lam * (evidence - uniform)
            np.testing.assert_allclose(state.evidence.evidence, expected, atol=1e-12)
            evidence = state.evidence.evidence.copy()
            lam = state.evidence.lambdas.copy()
        # the contact after a silent one has no reference arrival either
        _, diag = exploration_step(state, [0.9, 0.2, 0.1])
        assert diag.dt is None

    def test_single_class(self):
        state = LoopState(models=[_zero_model(label="only")])
        for reading in ([0.9, 0.2, 0.1], [0.2, 0.8, 0.2]):
            best, _ = exploration_step(state, reading)
            assert best == 0
            np.testing.assert_allclose(state.evidence.evidence, [1.0], atol=1e-15)

    def test_a_previous_packet_given_at_construction_times_the_first_step(self):
        # The loop keeps the previous packet's arrival beside it, read here from the packet handed in.
        prev = SpikePacket({2: -0.0, 0: 0.004}, arrival=0.25)
        state = LoopState(models=[_zero_model(), _zero_model(label="n")], prev_packet=prev)
        _, diag = exploration_step(state, [0.9, 0.2, 0.1], contact_time=0.3)
        assert diag.dt == 0.3 - arrival_time(prev)
        assert diag.stage_order[:3] == ("encode", "latency", "decode")

    @pytest.mark.parametrize("motor", [None, (2.0, 0.5), (2.0, 0.0), (0.5, -1.0)])
    @pytest.mark.parametrize("timed", [True, False])
    def test_diagnostics_json_holds_every_field(self, timed, motor):
        # Timed steps take explicit contact times; the others run on the loop's own clock.
        times = (1.0, 1.5) if timed else (None, None)
        motor_kw = {} if motor is None else {"motor": motor}
        readings = [[0.9, 0.2, 0.1], [0.2, 0.8, 0.2]]

        def run(state):
            return [exploration_step(state, r, contact_time=t, **motor_kw)[1] for r, t in zip(readings, times)]

        state = _trained_loop()
        built = [model.weights.w.copy() for model in state.models]
        first, second = run(state)
        assert second.dt == pytest.approx(0.5 if timed else 0.020, abs=1e-15)
        velocity, direction = motor or (1.0, 0.0)
        expected = velocity * second.dt * np.array([math.cos(direction), math.sin(direction), 0.0])
        np.testing.assert_allclose(second.displacement.to_array(), expected, rtol=0, atol=1e-12)
        assert 0.0 <= second.prediction_error <= 1.0
        # The loop is frozen: its models stay as built, and a fresh loop gives the same records.
        assert all(np.array_equal(model.weights.w, w) for model, w in zip(state.models, built))
        assert [d.to_json() for d in run(_trained_loop())] == [first.to_json(), second.to_json()]
        assert json.loads(first.to_json()) == {
            "step": 0,
            "dt": None,
            "displacement": None,
            "scores": [0.0, 0.0],
            "best": first.best,
            "prediction_error": first.prediction_error,
            "stage_order": ["encode", "score", "update", "adapt"],
        }
        d = second.displacement
        # JSON floats round-trip exactly, so the record equals the diagnostics it came from.
        assert json.loads(second.to_json()) == {
            "step": 1,
            "dt": second.dt,
            "displacement": [d.dx, d.dy, d.dz],
            "scores": second.scores,
            "best": second.best,
            "prediction_error": second.prediction_error,
            "stage_order": ["encode", "latency", "decode", "score", "update", "adapt"],
        }

    def test_each_step_decodes_at_its_own_velocity(self):
        state = _trained_loop()
        exploration_step(state, [0.9, 0.2, 0.1])
        for velocity, reading in zip((1.0, 2.0, 1.0), ([0.2, 0.8, 0.2], [0.1, 0.2, 0.9], [0.9, 0.2, 0.1])):
            _, diag = exploration_step(state, reading, motor=(velocity, 0.5))
            assert diag.displacement == decode_displacement(diag.dt, 0.5, LatencyParams(velocity))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"models": []}, "need at least one object model"),
            ({"evidence": EvidenceState(3)}, "evidence state and model list disagree on class count"),
            ({"encoder": EncoderParams(tau_base=0.05)}, "inter_contact_interval must exceed the packet span, got 0.02"),
            ({"prev_packet": SpikePacket({3: 0.0})}, "packet neuron id 3 out of range"),
            ({"inter_contact_interval": math.nan}, "inter_contact_interval must exceed the packet span, got nan"),
            ({"inter_contact_interval": math.inf}, "inter_contact_interval must exceed the packet span, got inf"),
        ],
        ids=["no-models", "evidence-size", "packet-span", "previous-packet-id", "nan-interval", "inf-interval"],
    )
    def test_loop_state_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LoopState(**{"models": [_zero_model()], **kwargs})

    def test_loop_state_rejects_non_finite_weights_naming_the_model(self):
        bad = _zero_model(label="bad")
        bad.weights.w[0, 1], bad.weights.w[1, 0] = math.inf, -math.inf  # set after the matrix checked itself
        with pytest.raises(ValueError, match="object model 'bad' has non-finite weights"):
            LoopState(models=[_zero_model(label="good"), bad])
        bad.weights.w[1, 0] = 0.0
        bad.weights.w[0, 1] = math.nan
        with pytest.raises(ValueError, match="object model 'bad' has non-finite weights"):
            LoopState(models=[bad, _zero_model(label="good")])


def _loop_snapshot(state):
    return (
        state.evidence.evidence.tobytes(),
        state.evidence.lambdas.tobytes(),
        state.step,
        state.clock,
        state.prev_packet,
    )


class TestOverflowingScore:
    """A score that overflows raises on its own step, before the evidence changes."""

    def test_the_step_raises_and_changes_nothing(self):
        huge = ObjectModel("a", WeightMatrix(np.full((3, 3), 1e308)))
        state = LoopState(models=[huge, _zero_model(label="b")])
        exploration_step(state, [0.9, 0.5, 0.7])
        before = _loop_snapshot(state)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            ValueError, match=re.escape("score 0 / temperature must be finite, got inf / 1.0")
        ):
            exploration_step(state, [0.9, 0.5, 0.7])
        assert _loop_snapshot(state) == before


class TestContactTime:
    """A contact whose packet arrives before the previous one raises on its own step, before any state changes."""

    @pytest.mark.parametrize("contact_time", [0.999, -1.0])
    def test_an_earlier_contact_raises_and_changes_nothing(self, contact_time):
        state = _trained_loop()
        exploration_step(state, [0.9, 0.2, 0.1], contact_time=1.0)
        before = _loop_snapshot(state)
        with pytest.raises(ValueError, match="inter-packet interval must be finite and >= 0"):
            exploration_step(state, [0.2, 0.8, 0.2], contact_time=contact_time)
        assert _loop_snapshot(state) == before


class TestReadingLength:
    """Every step checks the reading's neuron count against the models', before any state changes."""

    @pytest.mark.parametrize("size", [2, 5])
    @pytest.mark.parametrize("at_step", [0, 1, 3])
    def test_a_reading_of_the_wrong_length_raises_and_changes_nothing(self, size, at_step):
        state = _trained_loop()
        readings = [[0.9, 0.2, 0.1], [0.2, 0.8, 0.2], [0.1, 0.2, 0.9]]
        for reading in readings[:at_step]:
            exploration_step(state, reading)
        before = _loop_snapshot(state)
        bad = [0.9, 0.5, 0.3, 0.7, 0.2][:size]
        with pytest.raises(ValueError, match=f"sensor reading has {size} neurons, but the models have 3"):
            exploration_step(state, bad)
        assert _loop_snapshot(state) == before
        # The loop goes on from where it was.
        exploration_step(state, [0.2, 0.8, 0.2])
        assert state.step == at_step + 1


class TestMotorCommand:
    """Every step checks its motor command before any state changes, whether or not it decodes."""

    @pytest.mark.parametrize(
        "motor, message",
        [
            ((-1.0, math.nan), "assumed_velocity must be positive and finite"),
            ((0.0, 0.0), "assumed_velocity must be positive and finite"),
            ((math.inf, 0.0), "assumed_velocity must be positive and finite"),
            ((1.0, math.nan), "motor direction must be finite"),
            ((1.0, -math.inf), "motor direction must be finite"),
            ((1.0, 0.0, 0.0), r"motor must be a \(velocity, direction\) pair"),
            ((1.0,), r"motor must be a \(velocity, direction\) pair"),
        ],
    )
    # Step 0 and a step after an empty packet decode nothing; step 2 decodes.
    @pytest.mark.parametrize("before", [[], [[0.0, 0.0, 0.0]], [[0.9, 0.2, 0.1], [0.2, 0.8, 0.2]]])
    def test_a_bad_command_raises_on_its_own_step_and_changes_nothing(self, motor, message, before):
        state = _trained_loop()
        for reading in before:
            exploration_step(state, reading)
        snapshot = _loop_snapshot(state)
        with pytest.raises(ValueError, match=message):
            exploration_step(state, [0.1, 0.2, 0.9], motor=motor)
        assert _loop_snapshot(state) == snapshot
        # The loop goes on from where it was.
        _, diag = exploration_step(state, [0.1, 0.2, 0.9], motor=(2.0, 0.5))
        assert diag.step == len(before)


class TestTemperature:
    """A temperature that is not positive, NaN included, is rejected before any state changes."""

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_rejected_at_construction_and_by_the_likelihoods(self, temperature):
        with pytest.raises(ValueError, match="temperature must be positive"):
            LoopState(models=[_zero_model()], temperature=temperature)
        with pytest.raises(ValueError, match="temperature must be positive"):
            log_likelihoods_from_scores([1.0, 0.0], temperature=temperature)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("stepped", [True, False])
    def test_set_after_construction_raises_and_changes_nothing(self, temperature, stepped):
        # Unstepped, the step that raises is the cold start, which scores nothing.
        state = _trained_loop()
        if stepped:
            exploration_step(state, [0.9, 0.2, 0.1])
        state.temperature = temperature
        before = _loop_snapshot(state)
        with pytest.raises(ValueError, match="temperature must be positive"):
            exploration_step(state, [0.2, 0.8, 0.2])
        assert _loop_snapshot(state) == before
        # The loop goes on from where it was once the temperature is mended.
        state.temperature = 1.0
        _, diag = exploration_step(state, [0.2, 0.8, 0.2])
        assert diag.step == int(stepped)
