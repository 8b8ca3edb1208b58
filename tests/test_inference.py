"""Scoring, likelihoods, and the full exploration step."""

import copy
import json
import math
import random

import numpy as np
import pytest

from tempocode.encoding import EncoderParams, encode
from tempocode.evidence import EvidenceState
from tempocode.inference import (
    LoopState,
    ObjectModel,
    alignment_score,
    exploration_step,
    leading_pathway_score,
    log_likelihoods,
    log_likelihoods_from_scores,
)
from tempocode.stdp import train_on_traversal
from tempocode.types import SpikePacket, WeightMatrix
from tempocode.world import discrimination_pair


def _zero_model(n=3, label="m"):
    return ObjectModel(label, WeightMatrix.zeros(n))


def _single_weight_model(i, j, value, n=3):
    w = WeightMatrix.zeros(n)
    w.w[i, j] = value
    return ObjectModel("m", w)


def _packets_for(obj, interval=0.020):
    return [encode(c, arrival=k * interval) for k, c in enumerate(obj.contacts)]


class TestAlignmentScore:
    def test_zero_weights_score_zero(self):
        prev = SpikePacket({0: 0.0}, arrival=0.0)
        cur = SpikePacket({1: 0.0}, arrival=0.020)
        assert alignment_score(prev, cur, _zero_model()) == 0.0

    def test_single_pair(self):
        prev = SpikePacket({0: 0.0}, arrival=0.0)
        cur = SpikePacket({1: 0.0}, arrival=0.020)
        assert alignment_score(prev, cur, _single_weight_model(0, 1, 0.3)) == 0.3

    def test_empty_packets_score_zero(self):
        model = _single_weight_model(0, 1, 0.3)
        assert alignment_score(SpikePacket({}), SpikePacket({0: 0.0}), model) == 0.0
        assert alignment_score(None, SpikePacket({0: 0.0}), model) == 0.0

    def test_causal_filter_on_overlapping_packets(self):
        # anti-causal pairs are excluded when packets do overlap in time
        prev = SpikePacket({0: 0.0, 1: 0.009}, arrival=0.0)
        cur = SpikePacket({2: 0.0}, arrival=0.005)
        model = ObjectModel("m", WeightMatrix(np.ones((3, 3))))
        assert alignment_score(prev, cur, model) == 1.0  # only 0 -> 2 is causal

    def test_trained_matrices_order_traversals(self):
        obj_a, obj_b = discrimination_pair()
        packets_a = _packets_for(obj_a)
        packets_b = _packets_for(obj_b)
        model_a = ObjectModel("A", train_on_traversal(WeightMatrix.zeros(3), packets_a))
        model_b = ObjectModel("B", train_on_traversal(WeightMatrix.zeros(3), packets_b))
        score_aa = sum(alignment_score(p, q, model_a) for p, q in zip(packets_a, packets_a[1:]))
        score_ab = sum(alignment_score(p, q, model_b) for p, q in zip(packets_a, packets_a[1:]))
        assert score_aa > score_ab

    def test_out_of_range_ids_rejected(self):
        prev = SpikePacket({7: 0.0}, arrival=0.0)
        cur = SpikePacket({0: 0.0}, arrival=0.020)
        with pytest.raises(ValueError):
            alignment_score(prev, cur, _zero_model())


def _alignment_reference(prev, cur, model):
    """The scalar definition: causal pairs' weights added left to right from 0.0."""
    score = 0.0
    for i, t_pre in prev.items():
        for j, t_post in cur.items():
            if prev.arrival + t_pre < cur.arrival + t_post:
                score += model.weights.w[i, j]
    return score


class TestAlignmentScoreMatchesScalarLoop:
    """The masked gather against the double loop, compared as bytes."""

    def test_random_overlapping_packets(self):
        rnd = random.Random(7)
        n = 24
        for case in range(200):
            prev_ids, cur_ids = rnd.sample(range(n), rnd.randint(1, 16)), rnd.sample(range(n), rnd.randint(1, 16))
            prev = SpikePacket({nid: 0.001 * k for k, nid in enumerate(prev_ids)}, arrival=0.0)
            arrival = rnd.choice([0.0, 0.004, 0.020])
            cur = SpikePacket({nid: 0.001 * k for k, nid in enumerate(cur_ids)}, arrival=arrival)
            # magnitudes far apart make any other summation order show in the bits
            choices = [-0.0, 1e16, -1e16, 1.0]
            w = np.array([[rnd.choice(choices + [rnd.uniform(-1, 1)]) for _ in range(n)] for _ in range(n)])
            model = ObjectModel("m", WeightMatrix(w))
            got = alignment_score(prev, cur, model)
            expected = _alignment_reference(prev, cur, model)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), f"case {case}"

    def test_non_causal_pairs_and_negative_zero(self):
        prev = SpikePacket({0: 0.0, 1: 0.009}, arrival=0.0)
        cur = SpikePacket({2: 0.0, 3: 0.002}, arrival=0.005)
        w = np.full((4, 4), -0.0)
        w[1, 2] = 5.0  # 1 fires at 0.009, after 2 at 0.005: not causal
        model = ObjectModel("m", WeightMatrix(w))
        score = alignment_score(prev, cur, model)
        assert np.float64(score).tobytes() == np.float64(0.0).tobytes()  # -0.0 terms give +0.0 as the loop did
        assert np.float64(score).tobytes() == np.float64(_alignment_reference(prev, cur, model)).tobytes()


class TestLeadingPathwayScore:
    def test_uses_first_firing_pair_only(self):
        prev = SpikePacket({0: 0.0, 2: 0.005}, arrival=0.0)
        cur = SpikePacket({1: 0.0, 2: 0.005}, arrival=0.020)
        w = WeightMatrix(np.arange(9, dtype=float).reshape(3, 3))
        assert leading_pathway_score(prev, cur, ObjectModel("m", w)) == w.w[0, 1]

    def test_empty_packets_score_zero(self):
        assert leading_pathway_score(SpikePacket({}), SpikePacket({0: 0.0}), _zero_model()) == 0.0


class TestLogLikelihoods:
    def test_equal_scores_are_uniform(self):
        prev = SpikePacket({0: 0.0}, arrival=0.0)
        cur = SpikePacket({1: 0.0}, arrival=0.020)
        ll = log_likelihoods(prev, cur, [_zero_model(), _zero_model()])
        np.testing.assert_allclose(ll, [math.log(0.5)] * 2, rtol=1e-12)

    def test_softmax_values(self):
        ll = log_likelihoods_from_scores([1.0, 0.0], temperature=1.0)
        np.testing.assert_allclose(
            ll, [math.log(math.e / (math.e + 1)), math.log(1 / (math.e + 1))], atol=1e-12
        )
        np.testing.assert_allclose(ll, [-0.31326168751822286, -1.3132616875182228], atol=1e-10)

    def test_high_temperature_flattens(self):
        ll = log_likelihoods_from_scores([5.0, 0.0, -3.0], temperature=1e9)
        np.testing.assert_allclose(ll, [math.log(1 / 3)] * 3, atol=1e-8)

    def test_likelihoods_sum_to_one(self):
        ll = log_likelihoods_from_scores([3.1, -2.0, 0.4, 0.0], temperature=0.7)
        assert np.exp(ll).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            log_likelihoods_from_scores([1.0], temperature=0.0)
        with pytest.raises(ValueError):
            log_likelihoods(None, None, [])


def _trained_loop(learn=True):
    obj_a, obj_b = discrimination_pair()
    model_a = ObjectModel("A", train_on_traversal(WeightMatrix.zeros(3), _packets_for(obj_a)))
    model_b = ObjectModel("B", train_on_traversal(WeightMatrix.zeros(3), _packets_for(obj_b)))
    return LoopState(models=[model_a, model_b], learn=learn)


class TestExplorationStep:
    def test_cold_start(self):
        state = _trained_loop(learn=True)
        best, diag = exploration_step(state, [0.9, 0.2, 0.1])
        assert diag.dt is None
        assert diag.displacement is None
        assert "stdp" not in diag.stage_order
        assert diag.scores == [0.0, 0.0]
        np.testing.assert_allclose(state.evidence.evidence, [0.5, 0.5], atol=1e-12)
        assert best == 0

    def test_noiseless_traversal_recovers_object(self):
        obj_a = discrimination_pair()[0]
        state = _trained_loop(learn=False)
        best = None
        for contact in obj_a.contacts:
            best, _ = exploration_step(state, contact)
        assert state.models[best].label == "A"

    def test_dt_and_displacement(self):
        state = _trained_loop(learn=False)
        exploration_step(state, [0.9, 0.2, 0.1], motor=(2.0, 0.0))
        _, diag = exploration_step(state, [0.2, 0.8, 0.2], motor=(2.0, 0.0))
        assert diag.dt == pytest.approx(0.020, abs=1e-15)
        np.testing.assert_allclose(diag.displacement.to_array(), [0.04, 0.0, 0.0], atol=1e-12)

    def test_dt_measured_before_stdp(self):
        state = _trained_loop(learn=True)
        exploration_step(state, [0.9, 0.2, 0.1])
        _, diag = exploration_step(state, [0.2, 0.8, 0.2])
        order = diag.stage_order
        assert "latency" in order and "stdp" in order
        assert order.index("latency") < order.index("stdp")
        assert order.index("encode") == 0
        assert order.index("score") < order.index("update") < order.index("adapt")

    def test_learning_updates_active_matrix_only(self):
        state = _trained_loop(learn=True)
        frozen_before = [m.weights.w.copy() for m in state.models]
        exploration_step(state, [0.9, 0.2, 0.1])
        exploration_step(state, [0.2, 0.8, 0.2])
        assert state.learning_matrix.w.sum() > 0.0
        for model, before in zip(state.models, frozen_before):
            assert np.array_equal(model.weights.w, before)

    def test_frozen_loop_is_pure(self):
        readings = [[0.9, 0.2, 0.1], [0.2, 0.8, 0.2], [0.1, 0.2, 0.9]]
        outs = []
        for _ in range(2):
            state = _trained_loop(learn=False)
            outs.append([exploration_step(state, r)[1].to_json() for r in readings])
        assert outs[0] == outs[1]

    def test_empty_packet_skips_and_decays_to_uniform(self):
        state = _trained_loop(learn=True)
        exploration_step(state, [0.9, 0.2, 0.1])
        exploration_step(state, [0.2, 0.8, 0.2])
        before = state.learning_matrix.w.copy()
        evidence = state.evidence.evidence.copy()
        lam = state.evidence.lambdas.copy()
        uniform = np.full(2, 0.5)
        for _ in range(3):
            _, diag = exploration_step(state, [0.0, 0.0, 0.0])
            assert diag.dt is None
            assert diag.displacement is None
            assert "stdp" not in diag.stage_order
            assert diag.scores == [0.0, 0.0]
            expected = uniform + lam * (evidence - uniform)
            np.testing.assert_allclose(state.evidence.evidence, expected, atol=1e-12)
            evidence = state.evidence.evidence.copy()
            lam = state.evidence.lambdas.copy()
        assert np.array_equal(state.learning_matrix.w, before)
        # the contact after a silent one has no reference arrival either
        _, diag = exploration_step(state, [0.9, 0.2, 0.1])
        assert diag.dt is None

    def test_single_class(self):
        state = LoopState(models=[_zero_model(label="only")], learn=False)
        for reading in ([0.9, 0.2, 0.1], [0.2, 0.8, 0.2]):
            best, _ = exploration_step(state, reading)
            assert best == 0
            np.testing.assert_allclose(state.evidence.evidence, [1.0], atol=1e-15)

    def test_explicit_contact_times(self):
        state = _trained_loop(learn=False)
        exploration_step(state, [0.9, 0.2, 0.1], contact_time=1.0)
        _, diag = exploration_step(state, [0.2, 0.8, 0.2], contact_time=1.5)
        assert diag.dt == pytest.approx(0.5, abs=1e-15)

    def test_diagnostics_json_lines(self):
        state = _trained_loop(learn=False)
        exploration_step(state, [0.9, 0.2, 0.1])
        _, diag = exploration_step(state, [0.2, 0.8, 0.2])
        record = json.loads(diag.to_json())
        assert list(record) == ["step", "dt", "displacement", "scores", "best", "prediction_error"]
        assert record["step"] == 1
        assert len(record["displacement"]) == 3
        assert len(record["scores"]) == 2
        assert 0.0 <= record["prediction_error"] <= 1.0

    def test_loop_state_validation(self):
        with pytest.raises(ValueError):
            LoopState(models=[])
        with pytest.raises(ValueError):
            LoopState(models=[_zero_model()], evidence=EvidenceState(3))
        with pytest.raises(ValueError):
            LoopState(models=[_zero_model()], encoder=EncoderParams(tau_base=0.05))
