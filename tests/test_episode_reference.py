"""The online loop against an episode rebuilt from public pieces, step by step, as bytes.

``_reference_episode`` runs the paper's step as separate public calls:
``encode`` the reading, ``apply_packet_pair`` on its own copy of the
learning matrix, ``alignment_scores`` against the models, then
``log_likelihoods_from_scores``, ``EvidenceState.update``,
``prediction_error`` and ``EvidenceState.adapt_lambda``. Every score, every
learning-matrix weight, every evidence value and λ of every step of
``exploration_step`` must match it.
"""

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
