"""The online loop against an episode rebuilt from public pieces, step by step, as bytes.

``_reference_episode`` runs the paper's step as separate public calls:
``encode`` the reading, ``alignment_scores`` against the models, then
``log_likelihoods_from_scores``, ``EvidenceState.update``,
``prediction_error`` and ``EvidenceState.adapt_lambda``. Every score,
every evidence value and λ of every step of ``exploration_step`` must
match it.
"""

import math
import random

import numpy as np
import pytest

from tempocode.encoding import EncoderParams, encode
from tempocode.evidence import EvidenceState, prediction_error
from tempocode.inference import (
    LoopState,
    ObjectModel,
    alignment_scores,
    exploration_step,
    log_likelihoods_from_scores,
)
from tempocode.stdp import apply_packet_pair
from tempocode.types import StdpParams, WeightMatrix

_INTERVAL = 0.020


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


def _models(rnd, n, count):
    # magnitudes far apart make any other summation order show in the bits
    choices = [-0.0, 1e6, -1e6, 1.0]
    return [
        ObjectModel(f"m{k}", WeightMatrix(np.array(
            [[rnd.choice(choices + [rnd.uniform(-1, 1)]) for _ in range(n)] for _ in range(n)]
        )))
        for k in range(count)
    ]


def _readings(rnd, n, steps):
    """Readings with some silent ones; about a third of the neurons fire in the rest."""
    readings = []
    for _ in range(steps):
        if rnd.random() < 0.15:
            readings.append([0.0] * n)
        else:
            readings.append([rnd.choice([0.0, 0.05, 0.5, rnd.uniform(0.0, 1.0)]) for _ in range(n)])
    return readings


def _contact_times(rnd, steps, overlap):
    """None (the loop's clock) or explicit times whose gaps fall below the packet span."""
    if not overlap:
        return [None] * steps
    times, t = [], 0.0
    for _ in range(steps):
        times.append(t)
        t += rnd.choice([0.002, 0.004, 0.007, 0.015])
    return times


def _reference_episode(models, readings, times, temperature):
    """Per step: (scores, evidence bytes, λ bytes, best), and the steps with non-causal pairs."""
    evidence = EvidenceState(len(models))
    prev, clock, non_causal = None, 0.0, 0
    steps = []
    for reading, contact_time in zip(readings, times):
        t = clock if contact_time is None else contact_time
        packet = encode(reading, EncoderParams(), arrival=t)
        if prev and packet:
            pre = [prev.arrival + o for o in prev.spikes.values()]
            post = [packet.arrival + o for o in packet.spikes.values()]
            non_causal += not max(pre) < min(post)
        scores = alignment_scores(prev, packet, models)
        ll = log_likelihoods_from_scores(scores, temperature)
        evidence.update(ll)
        best = evidence.best_hypothesis()
        evidence.adapt_lambda(best, prediction_error(ll, best))
        steps.append((_bytes(scores), evidence.evidence.tobytes(), evidence.lambdas.tobytes(), best))
        prev, clock = packet, t + _INTERVAL
    return steps, non_causal


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("retrain", [True, False])
@pytest.mark.parametrize("w_max", [None, 0.015])
@pytest.mark.parametrize("overlap", [False, True])
def test_every_step_matches_the_public_pieces(n, retrain, w_max, overlap):
    """The caller may change its models once the loop is built; the loop scores them as they were.

    With ``w_max`` the caller clips every weight to ±w_max; with ``retrain``
    it trains each model in place, by STDP bounded by ``w_max``, on every
    pair the loop has just scored.
    """
    rnd = random.Random(1000 * n + 100 * retrain + 10 * (w_max is not None) + overlap)
    stdp = StdpParams(w_max=w_max)
    temperature = 0.5
    models = _models(rnd, n, 4)
    steps = 40
    readings = _readings(rnd, n, steps)
    times = _contact_times(rnd, steps, overlap)
    expected, non_causal = _reference_episode(models, readings, times, temperature)
    # Overlapping packets hold non-causal spike pairs at some steps, which the causal mask must drop;
    # packets a contact interval apart never do.
    assert (non_causal > 0) == overlap
    state = LoopState(models=models, temperature=temperature, inter_contact_interval=_INTERVAL)
    built = [model.weights.w.copy() for model in models]
    if w_max is not None:
        for model in models:
            np.clip(model.weights.w, -w_max, w_max, out=model.weights.w)
    silent = 0
    for step, (reading, contact_time) in enumerate(zip(readings, times)):
        prev = state.prev_packet
        best, diag = exploration_step(state, reading, contact_time=contact_time)
        silent += not state.prev_packet
        got = (_bytes(diag.scores), state.evidence.evidence.tobytes(), state.evidence.lambdas.tobytes(), best)
        assert got == expected[step], f"step {step}"
        if retrain and prev and state.prev_packet:
            for model in models:
                apply_packet_pair(model.weights.w, prev, state.prev_packet, stdp)
    assert silent > 0
    changed = any(not np.array_equal(model.weights.w, w) for model, w in zip(models, built))
    assert changed == (retrain or w_max is not None)
    if w_max is not None:
        assert max(np.abs(model.weights.w).max() for model in models) == w_max


class TestWeightStack:
    """The loop reads the models' weights once, into one read-only stack."""

    def _state(self):
        models = _models(random.Random(3), 5, 3)
        originals = [ObjectModel(m.label, m.weights.copy()) for m in models]
        return LoopState(models=models), originals

    def test_the_stack_holds_each_model_row_major_and_is_read_only(self):
        state, originals = self._state()
        assert state.weight_stack.shape == (3, 25)
        assert state.weight_stack.tobytes() == np.stack([m.weights.w.ravel() for m in originals]).tobytes()
        assert not state.weight_stack.flags.writeable
        with pytest.raises(ValueError):
            state.weight_stack[0, 0] = 1.0

    def test_later_changes_to_a_model_do_not_reach_the_loop(self):
        state, originals = self._state()
        for model in state.models:
            model.weights.w[:] = 7.0
        rnd = random.Random(4)
        for step, reading in enumerate(_readings(rnd, 5, 20)):
            prev = state.prev_packet
            _, diag = exploration_step(state, reading)
            assert _bytes(diag.scores) == _bytes(alignment_scores(prev, state.prev_packet, originals)), f"step {step}"

    def test_learning_into_a_model_matrix_scores_the_matrix_as_it_was(self):
        state, originals = self._state()
        rnd = random.Random(5)
        for step, reading in enumerate(_readings(rnd, 5, 20)):
            prev = state.prev_packet
            _, diag = exploration_step(state, reading)
            assert _bytes(diag.scores) == _bytes(alignment_scores(prev, state.prev_packet, originals)), f"step {step}"
            # Train the first model on the pair just scored, in place, as the next step begins.
            if prev and state.prev_packet:
                apply_packet_pair(state.models[0].weights.w, prev, state.prev_packet)
        assert not np.array_equal(state.models[0].weights.w, originals[0].weights.w)


def _scalar_episode(models, readings, times, temperature):
    """Per step: (scores, evidence bytes, λ bytes, best), from scalar loops.

    Shares no code with the loop but ``encode``: a score is a fold from 0.0
    over the causal pairs in scalar double-loop order; the softmax, the
    evidence mix and the λ step are written out as numpy's ``exp``/``log``
    and one rounded operation each.
    """
    m = len(models)
    evidence, lambdas = np.full(m, 1.0 / m), np.full(m, 0.5)
    prev, clock = None, 0.0
    steps = []
    for reading, contact_time in zip(readings, times):
        t = clock if contact_time is None else contact_time
        packet = encode(reading, EncoderParams(), arrival=t)
        scores = [0.0] * m
        if prev and packet:
            pairs = [(i, j, prev.global_time(i), packet.global_time(j)) for i in prev.spikes for j in packet.spikes]
            scores = []
            for model in models:
                total = 0.0
                for i, j, pre, post in pairs:
                    if pre < post:
                        total += float(model.weights.w[i, j])
                scores.append(total)
        s = np.array(scores) / temperature
        s = s - s.max()
        ll = s - np.log(np.exp(s).sum())
        evidence = (1.0 - lambdas) * np.exp(ll) + lambdas * evidence
        total = evidence.sum()
        if total > 0.0:
            evidence = evidence / total
        best = int(np.argmax(evidence))
        error = min(max(1.0 - math.exp(ll[best]), 0.0), 1.0)
        lambdas[best] = min(max(lambdas[best] + 0.001 * (0.5 - error), 0.0), 1.0)
        steps.append((_bytes(scores), evidence.tobytes(), lambdas.tobytes(), best))
        prev, clock = packet, t + _INTERVAL
    return steps


def _assert_matches_scalar_loops(models, readings, times=None, temperature=0.5):
    """Run the loop against :func:`_scalar_episode`; returns the loop's state."""
    times = times or [None] * len(readings)
    expected = _scalar_episode(models, readings, times, temperature)
    state = LoopState(models=models, temperature=temperature, inter_contact_interval=_INTERVAL)
    for step, (reading, contact_time) in enumerate(zip(readings, times)):
        best, diag = exploration_step(state, reading, contact_time=contact_time)
        got = (_bytes(diag.scores), state.evidence.evidence.tobytes(), state.evidence.lambdas.tobytes(), best)
        assert got == expected[step], f"step {step}"
    return state


class TestAgainstScalarLoops:
    """Scores, evidence and λ of every step against scalar loops, as bytes, at the loop's edge cases."""

    def test_overlapping_packets_drop_their_non_causal_pairs(self):
        rnd = random.Random(21)
        models = _models(rnd, 12, 3)
        readings = [[rnd.choice([0.0, 0.5, rnd.uniform(0.2, 1.0)]) for _ in range(12)] for _ in range(30)]
        # Gaps below the 10 ms packet span, and one contact time that repeats: contact 2 fires one
        # neuron at contact 1's arrival, so no pair of that step is causal.
        times = [0.0, 0.004, 0.004, 0.006] + [0.006 + 0.003 * k for k in range(1, 27)]
        readings[1][0] = 0.9
        readings[2] = [0.0] * 11 + [0.7]
        packets = [encode(r, EncoderParams(), arrival=t) for r, t in zip(readings, times)]
        dropped = sum(
            not pre < post
            for prev, cur in zip(packets, packets[1:])
            for pre in prev.id_time_arrays[1].tolist()
            for post in cur.id_time_arrays[1].tolist()
        )
        assert dropped > 100
        assert not any(pre < post for pre in packets[1].id_time_arrays[1] for post in packets[2].id_time_arrays[1])
        state = _assert_matches_scalar_loops(models, readings, times)
        assert state.step == 30

    def test_a_block_of_negative_zeros_scores_positive_zero(self):
        rnd = random.Random(22)
        zeros = ObjectModel("zeros", WeightMatrix(np.full((6, 6), -0.0)))
        models = [zeros] + _models(rnd, 6, 2)
        readings = [[rnd.uniform(0.2, 1.0) for _ in range(6)] for _ in range(8)]
        _assert_matches_scalar_loops(models, readings)
        state = LoopState(models=models)
        for reading in readings[:2]:
            _, diag = exploration_step(state, reading)
        assert _bytes(diag.scores[:1]) == _bytes([0.0])

    def test_a_pair_block_of_4900_synapses(self):
        # 70 fully active neurons make 4,900 pairs a step.
        rnd = random.Random(23)
        models = _models(rnd, 70, 2)
        readings = [[rnd.uniform(0.2, 1.0) for _ in range(70)] for _ in range(4)]
        _assert_matches_scalar_loops(models, readings)
