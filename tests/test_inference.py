"""Scoring, likelihoods, and the full exploration step."""

import math
import random
import re
from dataclasses import astuple

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
    StepDiagnostics,
    alignment_score,
    exploration_step,
    log_likelihoods_from_scores,
)
from tempocode.latency import decode_displacement
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
            (SpikePacket({0: 0.0}, arrival=0.0), None, _single_weight_model(0, 1, 0.3), 0.0),
            # A missing packet scores 0 before the other packet's ids are checked.
            (None, SpikePacket({3: 0.0}, arrival=0.020), _zero_model(), 0.0),
            # Packets that overlap in time: only 0 -> 2 is causal; 1 fires at 0.009, after 2 at 0.005.
            (SpikePacket({0: 0.0, 1: 0.009}, arrival=0.0), SpikePacket({2: 0.0}, arrival=0.005),
             ObjectModel("m", WeightMatrix(np.ones((3, 3)))), 1.0),
        ],
        ids=["zero-weights", "single-pair", "empty-packet", "no-packet", "no-current-packet",
             "no-packet-beside-a-bad-id", "causal-filter"],
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


class TestWeightStack:
    """The loop reads the models' weights once, into one read-only stack (``test_oracle`` changes the models after)."""

    def test_the_stack_holds_each_model_row_major_and_is_read_only(self):
        models = _models(random.Random(3), 5, 3)
        state = LoopState(models=models)
        # Row i * 5 + j holds every model's weight on synapse (i, j), so a step gathers one row per synapse.
        assert state.weight_stack.shape == (25, 3) and state.weight_stack.flags.c_contiguous
        assert state.weight_stack.tobytes() == np.stack([m.weights.w.ravel() for m in models], axis=1).tobytes()
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


class TestLogLikelihoods:
    def test_equal_scores_are_uniform(self):
        prev = SpikePacket({0: 0.0}, arrival=0.0)
        cur = SpikePacket({1: 0.0}, arrival=0.020)
        ll = log_likelihoods_from_scores([alignment_score(prev, cur, m) for m in (_zero_model(), _zero_model())])
        np.testing.assert_allclose(ll, [math.log(0.5)] * 2, rtol=1e-12)
        models = [_single_weight_model(0, 1, 5.0)] * 3
        empty = log_likelihoods_from_scores([alignment_score(SpikePacket({}), cur, m) for m in models])
        np.testing.assert_allclose(empty, [math.log(1 / 3)] * 3, rtol=1e-12)

    @pytest.mark.parametrize(
        "scores, expected, atol",
        [([1.0, 0.0], [math.log(math.e / (math.e + 1)), math.log(1 / (math.e + 1))], 1e-12),
         ([5e-9, 0.0, -3e-9], [math.log(1 / 3)] * 3, 1e-8)],
        ids=["softmax-values", "near-equal-scores-flatten"],
    )
    def test_examples(self, scores, expected, atol):
        np.testing.assert_allclose(log_likelihoods_from_scores(scores), expected, atol=atol)

    def test_likelihoods_sum_to_one(self):
        ll = log_likelihoods_from_scores([3.1, -2.0, 0.4, 0.0])
        assert np.exp(ll).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_score_raises_naming_it(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"score 1 must be finite, got {bad}")):
            log_likelihoods_from_scores([0.0, bad, 1.0])


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

    @pytest.mark.parametrize("motor", [None, (2.0, 0.5), (2.0, 0.0), (0.5, -1.0)])
    @pytest.mark.parametrize("timed", [True, False])
    def test_diagnostics_hold_every_field(self, timed, motor):
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
        np.testing.assert_allclose(astuple(second.displacement), expected, rtol=0, atol=1e-12)
        assert 0.0 <= second.prediction_error <= 1.0
        # The loop is frozen: its models stay as built, and a fresh loop gives the same records.
        assert all(np.array_equal(model.weights.w, w) for model, w in zip(state.models, built))
        assert run(_trained_loop()) == [first, second]
        assert first == StepDiagnostics(
            step=0,
            dt=None,
            displacement=None,
            scores=[0.0, 0.0],
            best=first.best,
            prediction_error=first.prediction_error,
        )
        assert second == StepDiagnostics(
            step=1,
            dt=second.dt,
            displacement=decode_displacement(second.dt, direction, LatencyParams(velocity)),
            scores=second.scores,
            best=second.best,
            prediction_error=second.prediction_error,
        )

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
            ({"models": [_zero_model(), _zero_model(n=4)]}, "object models disagree on neuron count"),
            ({"evidence": EvidenceState(3)}, "evidence state and model list disagree on class count"),
            ({"encoder": EncoderParams(tau_base=0.05)}, "inter_contact_interval must exceed the packet span, got 0.02"),
            ({"inter_contact_interval": math.nan}, "inter_contact_interval must exceed the packet span, got nan"),
            ({"inter_contact_interval": math.inf}, "inter_contact_interval must exceed the packet span, got inf"),
        ],
        ids=["no-models", "models-of-different-sizes", "evidence-size", "packet-span", "nan-interval", "inf-interval"],
    )
    def test_loop_state_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LoopState(**{"models": [_zero_model()], **kwargs})

    @pytest.mark.parametrize(
        "name, value",
        [("prev_arrival", 0.0), ("prev_active", np.array([0])), ("prev_values", np.array([0.9])), ("step", 1),
         ("clock", 1.0)],
    )
    def test_a_loop_is_built_from_its_models_and_settings_alone(self, name, value):
        with pytest.raises(TypeError, match=name):
            LoopState(models=[_zero_model()], **{name: value})

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
        state.prev_arrival,
        state.prev_active.tobytes(),
        state.prev_values.tobytes(),
    )


def _overflowing_loop():
    return LoopState(models=[ObjectModel("a", WeightMatrix(np.full((3, 3), 1e308))), _zero_model(label="b")])


def _loop_with_evidence_of(n_classes):
    """A trained two-model loop whose evidence is replaced, after construction, by one of ``n_classes`` classes."""
    def loop():
        state = _trained_loop()
        state.evidence = EvidenceState(n_classes)
        return state
    return loop


def _raising(name, before, step, message, after=None, loop=_trained_loop, **kwargs):
    """A table row: the loop, its steps before as (reading, contact time), the step that raises, its error, and the
    step that follows (None: none follows)."""
    return pytest.param(loop, before, step, message, after, id=name, **kwargs)


_READINGS = [[0.9, 0.2, 0.1], [0.2, 0.8, 0.2], [0.1, 0.2, 0.9]]
_SILENT = [0.0, 0.0, 0.0]
_VELOCITY = "assumed_velocity must be positive and finite"
_DIRECTION = "motor direction must be finite"
_NOT_A_PAIR = r"motor must be a \(velocity, direction\) pair"

_RAISING_STEPS = [
    # Every step checks the reading's neuron count against the models'.
    *(_raising(f"reading-of-{size}-at-step-{at}", [(r, None) for r in _READINGS[:at]],
               {"sensor_reading": [0.9, 0.5, 0.3, 0.7, 0.2][:size]},
               f"sensor reading has {size} neurons, but the models have 3", {"sensor_reading": [0.2, 0.8, 0.2]})
      for size in (2, 5) for at in (0, 1, 3)),
    # Every step checks its motor command, whether or not it decodes: step 0 and a step after an empty packet
    # decode nothing; step 2 decodes.
    *(_raising(f"motor-{name}-after-{len(before)}-steps", [(r, None) for r in before],
               {"sensor_reading": [0.1, 0.2, 0.9], "motor": motor}, message,
               {"sensor_reading": [0.1, 0.2, 0.9], "motor": (2.0, 0.5)})
      for name, motor, message in [
          ("negative-velocity", (-1.0, math.nan), _VELOCITY),
          ("zero-velocity", (0.0, 0.0), _VELOCITY),
          ("infinite-velocity", (math.inf, 0.0), _VELOCITY),
          ("nan-direction", (1.0, math.nan), _DIRECTION),
          ("infinite-direction", (1.0, -math.inf), _DIRECTION),
          ("three-values", (1.0, 0.0, 0.0), _NOT_A_PAIR),
          ("one-value", (1.0,), _NOT_A_PAIR),
      ]
      for before in ([], [_SILENT], _READINGS[:2])),
    # A score that overflows raises before the evidence changes, and warns of nothing.
    _raising("overflowing-score", [([0.9, 0.5, 0.7], None)], {"sensor_reading": [0.9, 0.5, 0.7]},
             re.escape("score 0 must be finite, got inf"), loop=_overflowing_loop,
             marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # Evidence set after construction is checked against the models' count; one class would broadcast against
    # two models' likelihoods.
    *(_raising(f"evidence-of-{n_classes}-classes", [], {"sensor_reading": [0.2, 0.8, 0.2]},
               "evidence state and model list disagree on class count", loop=_loop_with_evidence_of(n_classes))
      for n_classes in (1, 3)),
    # A contact whose packet arrives before the previous one.
    *(_raising(f"contact-at-{t}", [([0.9, 0.2, 0.1], 1.0)], {"sensor_reading": [0.2, 0.8, 0.2], "contact_time": t},
               "inter-packet interval must be finite and >= 0")
      for t in (0.999, -1.0)),
    # A contact time that is not finite, though the clock before it is.
    *(_raising(f"contact-at-{t}", [([0.9, 0.2, 0.1], 1.0)], {"sensor_reading": [0.2, 0.8, 0.2], "contact_time": t},
               f"packet arrival time must be finite, got {t}", {"sensor_reading": [0.2, 0.8, 0.2]})
      for t in (math.nan, math.inf)),
    # The same when a packet is silent, so the clock never runs back; a contact at the previous one's time is
    # not earlier.
    *(_raising(name, [(first, 1.0)], {"sensor_reading": second, "contact_time": 0.5},
               re.escape("inter-packet interval must be finite and >= 0, got -0.5"),
               {"sensor_reading": second, "contact_time": 1.0})
      for name, first, second in [
          ("firing-then-silent", [0.9, 0.2, 0.1], _SILENT),
          ("silent-then-firing", _SILENT, [0.2, 0.8, 0.2]),
          ("silent-then-silent", _SILENT, _SILENT),
      ]),
]


@pytest.mark.parametrize("loop, before, step, message, after", _RAISING_STEPS)
def test_a_step_that_raises_changes_nothing(loop, before, step, message, after):
    """A bad input raises on its own step, before any state changes, and the loop goes on from where it was."""
    state = loop()
    for reading, contact_time in before:
        exploration_step(state, reading, contact_time=contact_time)
    snapshot = _loop_snapshot(state)
    with pytest.raises(ValueError, match=message):
        exploration_step(state, **step)
    assert _loop_snapshot(state) == snapshot
    if after is not None:
        _, diag = exploration_step(state, **after)
        assert diag.step == len(before) == state.step - 1
