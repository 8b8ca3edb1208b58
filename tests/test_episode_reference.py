"""The online loop against an episode rebuilt from public pieces, step by step, as bytes.

``_reference_episode`` runs the paper's step as separate public calls:
``encode`` the reading, ``apply_packet_pair`` on its own copy of the
learning matrix, ``alignment_scores`` against the models, then
``log_likelihoods_from_scores``, ``EvidenceState.update``,
``prediction_error`` and ``EvidenceState.adapt_lambda``. Every score, every
learning-matrix weight, every evidence value and λ of every step of
``exploration_step`` must match it.
"""

import math
import random
import warnings

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
from tempocode.rng import _CHUNK
from tempocode.stdp import apply_packet_pair, stdp_update
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


def _reference_episode(models, readings, times, learn, stdp, temperature):
    """Per step: (scores, learning-matrix bytes, evidence bytes, λ bytes, best), and the steps with non-causal pairs."""
    n = models[0].weights.n
    learning = np.zeros((n, n))
    evidence = EvidenceState(len(models))
    prev, clock, non_causal = None, 0.0, 0
    steps = []
    for reading, contact_time in zip(readings, times):
        t = clock if contact_time is None else contact_time
        packet = encode(reading, EncoderParams(), arrival=t)
        if prev and packet:
            if learn:
                apply_packet_pair(learning, prev, packet, stdp)
            pre = [prev.arrival + o for o in prev.spikes.values()]
            post = [packet.arrival + o for o in packet.spikes.values()]
            non_causal += not max(pre) < min(post)
        scores = alignment_scores(prev, packet, models)
        ll = log_likelihoods_from_scores(scores, temperature)
        evidence.update(ll)
        best = evidence.best_hypothesis()
        evidence.adapt_lambda(best, prediction_error(ll, best))
        steps.append((_bytes(scores), learning.tobytes(), evidence.evidence.tobytes(), evidence.lambdas.tobytes(), best))
        prev, clock = packet, t + _INTERVAL
    return steps, non_causal


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("learn", [True, False])
@pytest.mark.parametrize("w_max", [None, 0.015])
@pytest.mark.parametrize("overlap", [False, True])
def test_every_step_matches_the_public_pieces(n, learn, w_max, overlap):
    rnd = random.Random(1000 * n + 100 * learn + 10 * (w_max is not None) + overlap)
    stdp = StdpParams(w_max=w_max)
    temperature = 0.5
    models = _models(rnd, n, 4)
    steps = 40
    readings = _readings(rnd, n, steps)
    times = _contact_times(rnd, steps, overlap)
    expected, non_causal = _reference_episode(models, readings, times, learn, stdp, temperature)
    # Overlapping packets hold non-causal spike pairs at some steps, which the causal mask must drop;
    # packets a contact interval apart never do.
    assert (non_causal > 0) == overlap
    state = LoopState(models=models, stdp=stdp, temperature=temperature, inter_contact_interval=_INTERVAL, learn=learn)
    silent = 0
    for step, (reading, contact_time) in enumerate(zip(readings, times)):
        best, diag = exploration_step(state, reading, contact_time=contact_time)
        silent += not state.prev_packet
        learning = state.learning_matrix.w.tobytes() if learn else np.zeros((n, n)).tobytes()
        got = (_bytes(diag.scores), learning, state.evidence.evidence.tobytes(), state.evidence.lambdas.tobytes(), best)
        assert got == expected[step], f"step {step}"
    assert silent > 0
    if learn and w_max is not None:
        assert np.abs(state.learning_matrix.w).max() == w_max


class TestWeightStack:
    """The loop reads the models' weights once, into one read-only stack."""

    def _state(self, learn_into_first_model=False):
        models = _models(random.Random(3), 5, 3)
        originals = [ObjectModel(m.label, m.weights.copy()) for m in models]
        learning_matrix = models[0].weights if learn_into_first_model else None
        return LoopState(models=models, learning_matrix=learning_matrix), originals

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
        state, originals = self._state(learn_into_first_model=True)
        rnd = random.Random(5)
        for step, reading in enumerate(_readings(rnd, 5, 20)):
            prev = state.prev_packet
            _, diag = exploration_step(state, reading)
            assert _bytes(diag.scores) == _bytes(alignment_scores(prev, state.prev_packet, originals)), f"step {step}"
        assert not np.array_equal(state.models[0].weights.w, originals[0].weights.w)


def _scalar_episode(models, readings, times, learn, stdp, temperature):
    """Per step: (scores, learning-matrix bytes, evidence bytes, λ bytes, best), from scalar loops.

    Shares no code with the loop but ``encode``: STDP is ``stdp_update`` per
    synapse in double-loop order; a score is a fold from 0.0 over the causal
    pairs in that order; the softmax, the evidence mix and the λ step are
    written out as numpy's ``exp``/``log`` and one rounded operation each.
    A step that raises ends the list with the error's text.
    """
    n, m = models[0].weights.n, len(models)
    learning = np.zeros((n, n))
    evidence, lambdas = np.full(m, 1.0 / m), np.full(m, 0.5)
    prev, clock = None, 0.0
    steps = []
    for reading, contact_time in zip(readings, times):
        t = clock if contact_time is None else contact_time
        packet = encode(reading, EncoderParams(), arrival=t)
        scores = [0.0] * m
        if prev and packet:
            pairs = [(i, j, prev.global_time(i), packet.global_time(j)) for i in prev.spikes for j in packet.spikes]
            if learn:
                try:
                    for i, j, pre, post in pairs:
                        learning[i, j] = stdp_update(learning[i, j], pre, post, stdp)
                except ValueError as exc:
                    steps.append(str(exc))
                    return steps
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
        steps.append((_bytes(scores), learning.tobytes(), evidence.tobytes(), lambdas.tobytes(), best))
        prev, clock = packet, t + _INTERVAL
    return steps


def _assert_matches_scalar_loops(models, readings, times=None, learn=True, stdp=StdpParams(), temperature=0.5):
    """Run the loop against :func:`_scalar_episode`; returns the loop's state."""
    times = times or [None] * len(readings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # Python's float addition overflows without one
        expected = _scalar_episode(models, readings, times, learn, stdp, temperature)
    state = LoopState(models=models, stdp=stdp, temperature=temperature, inter_contact_interval=_INTERVAL, learn=learn)
    n = models[0].weights.n
    for step, (reading, contact_time) in enumerate(zip(readings, times)):
        if isinstance(expected[step], str):
            with pytest.raises(ValueError) as info:
                exploration_step(state, reading, contact_time=contact_time)
            assert str(info.value) == expected[step]
            return state
        best, diag = exploration_step(state, reading, contact_time=contact_time)
        learning = state.learning_matrix.w.tobytes() if learn else np.zeros((n, n)).tobytes()
        got = (_bytes(diag.scores), learning, state.evidence.evidence.tobytes(), state.evidence.lambdas.tobytes(), best)
        assert got == expected[step], f"step {step}"
    return state


class TestAgainstScalarLoops:
    """Scores, STDP, evidence and λ of every step against scalar loops, as bytes, at the loop's edge cases."""

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
        _assert_matches_scalar_loops(models, readings, learn=False)
        state = LoopState(models=models, learn=False)
        for reading in readings[:2]:
            _, diag = exploration_step(state, reading)
        assert _bytes(diag.scores[:1]) == _bytes([0.0])

    def test_a_pair_block_larger_than_one_exp_chunk(self):
        # 70 fully active neurons make 4,900 pairs a step, past the 4,096 of one chunk.
        assert 70 * 70 > _CHUNK
        rnd = random.Random(23)
        models = _models(rnd, 70, 2)
        readings = [[rnd.uniform(0.2, 1.0) for _ in range(70)] for _ in range(4)]
        _assert_matches_scalar_loops(models, readings)

    def test_learning_clips_to_w_max(self):
        rnd = random.Random(24)
        stdp = StdpParams(w_max=0.015)
        state = _assert_matches_scalar_loops(_models(rnd, 5, 2), _readings(rnd, 5, 30), stdp=stdp)
        assert np.abs(state.learning_matrix.w).max() == 0.015

    def test_an_overflowing_weight_warns_then_raises_when_read(self):
        # Neuron 1 fires 5 ms into each packet, 15 ms before neuron 0 of the next one, so w[1, 0]
        # grows by about 4.7e307 a paired step and overflows at step 4; step 5 reads it.
        models = _models(random.Random(25), 2, 2)
        readings = [[0.9, 0.5]] * 8
        stdp = StdpParams(a_plus=1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            state = _assert_matches_scalar_loops(models, readings, stdp=stdp)
        assert state.step == 5 and state.learning_matrix.w[1, 0] == math.inf
        # The step that overflows warns and writes inf; the next step raises, changing nothing.
        state = LoopState(models=models, stdp=stdp)
        for reading in readings[:4]:
            exploration_step(state, reading)
        with pytest.warns(RuntimeWarning, match="overflow"):
            exploration_step(state, readings[4])

        def snapshot():
            return state.learning_matrix.w.tobytes(), state.evidence.evidence.tobytes(), state.step, state.prev_packet

        before = snapshot()
        with pytest.raises(ValueError, match="stdp_update requires finite weight and spike times"):
            exploration_step(state, readings[5])
        assert snapshot() == before
