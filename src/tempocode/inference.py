"""The complete exploration step: encode, decode, score, accumulate.

One call to :func:`exploration_step` advances a sensorimotor loop by a
single contact:

1. encode the sensor reading as its active set and arrival (spike times
   only where contacts overlap or touch),
2. measure the inter-packet interval from arrival times,
3. decode the implied displacement from that interval,
4. score the pair against every frozen object model (causal alignment),
5. mix the resulting log-likelihoods into the evidence,
6. adapt the best hypothesis's memory coefficient from prediction error,
7. return the best hypothesis.

The loop infers; it does not learn. STDP writes each object's model while
it trains (:mod:`tempocode.stdp`), and the loop scores contacts against
those models as they were when it was built.

Scoring is defined purely from the trained weight matrices: the alignment
score of a packet pair for a model is the sum of that model's weights over
all causally ordered (pre, post) neuron pairs of the two packets, and a
missing or empty packet scores 0 against every model. :func:`_causal_index`
names the pair's causal synapses, in the scalar double loop's order, and
:func:`_pair_scores` folds the weights gathered there from a (synapses,
models) stack down each column: the rule's one code path, over the loop's
stack for every model at once, and over one model's matrix as a
one-column stack for :func:`alignment_score`. The experiments'
leading-pair rule is :func:`tempocode.experiments._pathway_scores`.

:class:`LoopState` is built from its models and settings alone. It reads
the frozen models once: it stacks their weights into one read-only
(N*N, models) array and checks once that they are finite.
:func:`exploration_step` checks each input once per step, before any
state changes: its motor command, the reading's shape and values
(:func:`~tempocode.types.as_features`), the contact time, the reading's
length against the models' neuron count, the contact time against the
previous contact's (an earlier one is rejected, whether or not either
fires), the evidence's class count, and each score. Every active id of
this step and the one before is then in range. Its evidence stages run
the public functions' private code without their checks:
:func:`_log_softmax` for :func:`log_likelihoods_from_scores`, and
:meth:`~tempocode.evidence.EvidenceState._observe` for ``update``,
``best_hypothesis`` and ``adapt_lambda``, with the prediction error
between the last two. So the step's bits are the public chain's, and
each formula has one copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .encoding import EncoderParams, _offsets, encode
from .evidence import EvidenceState
from .latency import decode_displacement
from .stdp import _check_packet_ids
from .types import Displacement, LatencyParams, SpikePacket, WeightMatrix, _neuron_count, as_features


@dataclass(frozen=True, eq=False)
class ObjectModel:
    """A trained weight matrix standing in for one known object."""

    label: str
    weights: WeightMatrix


def left_sum(values) -> float | np.ndarray:
    """Sum of floats from 0.0, strictly left to right, along the last axis.

    numpy's ``sum`` is pairwise, and builtin ``sum`` is compensated from
    Python 3.12, so either would change the bits of a score or a report
    with the interpreter or the array length. ``np.add.accumulate`` adds in
    order, row by row, from each row's first term. That gives the fold
    from 0.0 its bits once 0.0 is added at the end: a float sum is -0.0
    only when both terms are -0.0, so the two folds differ only while every
    term so far is -0.0, where the fold from 0.0 holds 0.0 and the
    accumulate -0.0. (``np.add.reduce`` and ``np.einsum`` fold each column
    of a C-contiguous block of two or more columns in row order, but they
    sum a single column, or along the last axis, pairwise or unrolled: see
    :func:`_pair_scores`.) A 1-D input gives a float, an m x k input the
    array of its m row sums; a row of no terms sums to 0.0.
    """
    terms = np.asarray(values, dtype=float)
    if terms.shape[-1]:
        totals = np.add.accumulate(terms, axis=-1)[..., -1] + 0.0
    else:
        totals = np.zeros(terms.shape[:-1])
    return float(totals) if totals.ndim == 0 else totals


def _causal_index(prev_ids, cur_ids, n: int, times=None) -> np.ndarray:
    """Flat synapse indices ``i * n + j`` of two contacts' causally ordered (pre i, post j) pairs.

    The ids come in ascending order, so the indices come row-major, in the
    scalar double loop's order, and a fold of weights gathered there keeps
    every score's bits. ``times`` holds both contacts' spike times in id
    order, compared pair by pair; without them every pair is causal.
    """
    index = (prev_ids[:, None] * n + cur_ids).ravel()
    if times is None:
        return index
    pre_times, post_times = times
    return index[(pre_times[:, None] < post_times).ravel()]


def _pair_scores(stack: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each column's weights over the synapse rows ``index``, summed from 0.0 in that order.

    ``stack`` is a C-contiguous (n*n, models) array whose row ``i * n + j``
    holds every model's weight on synapse (i, j). With two or more columns
    ``np.einsum`` zeroes the totals and adds the gathered rows into them one
    after another, so each total is its column's fold from 0.0 bit for bit
    (verified on numpy 2.4.6 for 2-19 columns and 0-4,096 rows). One column
    collapses into numpy's fast axis, where ``einsum`` sums unrolled, so one
    model goes to :func:`left_sum`.
    """
    terms = stack.take(index, axis=0)
    if stack.shape[1] == 1:
        return left_sum(terms.T)
    return np.einsum("ij->j", terms)


def alignment_score(prev_packet: SpikePacket | None, cur_packet: SpikePacket | None, model: ObjectModel) -> float:
    """One model's sum of weights over the causally ordered (pre in prev, post in cur) pairs.

    A pair contributes w[i, j] when i's global spike time precedes j's;
    with non-overlapping packets that is every pair. A missing or empty
    packet scores 0.0, before any id is checked. Neuron ids outside the
    model's [0, n) raise ``ValueError``.
    """
    if not (prev_packet and cur_packet):
        return 0.0
    n = model.weights.n
    _check_packet_ids(prev_packet, n)
    _check_packet_ids(cur_packet, n)
    (prev_ids, pre_times), (cur_ids, post_times) = prev_packet.id_time_arrays, cur_packet.id_time_arrays
    index = _causal_index(prev_ids, cur_ids, n, (pre_times, post_times))
    return float(_pair_scores(model.weights.w.reshape(-1, 1), index)[0])


def log_likelihoods_from_scores(scores) -> np.ndarray:
    """Normalized log-likelihoods: the log softmax of the scores.

    ``exp`` and ``log`` come from numpy, whose float64 kernels numpy picks
    for the CPU it runs on, so these bits, and the evidence and lambda
    built on them, are not portable across CPUs: on an AVX512F Xeon,
    ``np.log`` and ``math.log`` disagree in the last bit on about 0.09% of
    inputs in [1, 8] (see also :meth:`EvidenceState.update`). ``scores``
    must be 1-D and not empty. A score that is not finite raises
    ``ValueError`` naming its index and value: its softmax would be NaN.
    """
    raw = np.asarray(scores, dtype=float)
    if raw.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {raw.shape}")
    if raw.size < 1:
        raise ValueError("need at least one score")
    return _log_softmax(raw)


def _log_softmax(raw: np.ndarray) -> np.ndarray:
    """The log softmax of a non-empty 1-D float array, in a new array.

    It checks the one thing the step does not check before it: that every
    score is finite.
    """
    finite = np.isfinite(raw)
    if not np.logical_and.reduce(finite):
        i = int(finite.argmin())
        raise ValueError(f"score {i} must be finite, got {raw[i]}")
    s = raw - np.maximum.reduce(raw)
    s -= np.log(np.add.reduce(np.exp(s)))
    return s


#: ``LatencyParams(velocity)``, built once while consecutive steps keep one velocity.
_latency_params = lru_cache(maxsize=1)(LatencyParams)


def _check_motor(motor) -> tuple[LatencyParams, float]:
    """A (velocity, direction) command as the decoder's ``LatencyParams`` and a finite direction.

    Every step checks its command, so a bad one fails on the step it is
    given, whether or not that step decodes a displacement. The last valid
    velocity's ``LatencyParams`` is kept, not rebuilt.
    """
    try:
        velocity, direction = motor
    except (TypeError, ValueError):
        raise ValueError(f"motor must be a (velocity, direction) pair, got {motor!r}") from None
    latency, direction = _latency_params(float(velocity)), float(direction)
    if not math.isfinite(direction):
        raise ValueError(f"motor direction must be finite, got {direction}")
    return latency, direction


@dataclass
class StepDiagnostics:
    """Everything one exploration step measured, in execution order."""

    step: int
    dt: float | None
    displacement: Displacement | None
    scores: list[float]
    best: int
    prediction_error: float


@dataclass
class LoopState:
    """Mutable state of one sensorimotor inference loop (single-threaded).

    The frozen per-object ``models`` are read once, here: their weights are
    copied into ``weight_stack``, one read-only C-contiguous (N*N, models)
    array whose row ``i * N + j`` holds every model's weight on synapse
    (i, j), so a later change to a model's matrix does not reach the loop.
    Every step scores over that stack (:func:`_pair_scores`). A step is
    a pure function of (state, input). Of the previous contact the loop
    keeps its arrival, ``prev_arrival`` (-inf before the first step), and
    owned copies of its active ids, ascending, and their activations,
    ``prev_active`` and ``prev_values`` (empty). These, ``step`` (from 0)
    and ``clock`` (from 0.0) are written only by steps. When no explicit
    contact time is supplied, contacts are assumed to arrive
    ``inter_contact_interval`` seconds apart.
    ``evidence`` must hold one class per model. It may be set after
    construction, so each step checks it once more, before it changes any
    state. Weights and ``inter_contact_interval`` (above the encoder's
    span) must be finite.
    """

    models: list[ObjectModel]
    evidence: EvidenceState = None  # type: ignore[assignment]
    encoder: EncoderParams = EncoderParams()
    inter_contact_interval: float = 0.020
    prev_arrival: float = field(default=-math.inf, init=False)
    prev_active: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp), init=False, repr=False)
    prev_values: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False)
    step: int = field(default=0, init=False)
    clock: float = field(default=0.0, init=False)
    weight_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _neuron_count([m.weights.n for m in self.models], "object model")
        if self.evidence is None:
            self.evidence = EvidenceState(len(self.models))
        if self.evidence.n_classes != len(self.models):
            raise ValueError("evidence state and model list disagree on class count")
        if not (math.isfinite(self.inter_contact_interval) and self.inter_contact_interval > self.encoder.tau_base):
            raise ValueError(f"inter_contact_interval must exceed the packet span, got {self.inter_contact_interval}")
        self.weight_stack = np.stack([m.weights.w.reshape(-1) for m in self.models], axis=1)
        finite = np.isfinite(self.weight_stack).all(axis=0)
        if not finite.all():
            label = self.models[int(finite.argmin())].label
            raise ValueError(f"object model {label!r} has non-finite weights")
        self.weight_stack.flags.writeable = False


def exploration_step(
    state: LoopState,
    sensor_reading,
    motor: tuple[float, float] = (1.0, 0.0),
    contact_time: float | None = None,
) -> tuple[int, StepDiagnostics]:
    """Advance the loop by one contact; returns (best hypothesis, diagnostics).

    ``motor`` is the (velocity, direction-in-radians) command the world
    executed; the velocity is taken as the decoder's assumed velocity. It
    must be a positive finite velocity and a finite direction, on every
    step, the ones that decode no displacement included. Interval
    measurement and displacement decoding are skipped on the first contact
    and around silent contacts, and a pair with a silent contact scores 0
    against every model. A ``contact_time`` earlier than the previous
    contact's raises ``ValueError``, whether or not either contact fires.
    The models' scores are the step's log-likelihoods up to a constant:
    their log softmax, unscaled, is mixed into the evidence, and a score
    that is not finite raises ``ValueError``. A step that raises changes
    no state. Its evidence stages run without the public functions'
    checks (see the module docstring): it calls neither
    :func:`log_likelihoods_from_scores` nor ``EvidenceState.update`` or
    ``adapt_lambda``.
    """
    latency, direction = _check_motor(motor)
    t = state.clock if contact_time is None else float(contact_time)
    reading = as_features(sensor_reading)
    if not math.isfinite(t):
        raise ValueError(f"packet arrival time must be finite, got {t}")
    # Every active id is in range once the reading's length is the models'.
    n = state.models[0].weights.n
    if reading.size != n:
        raise ValueError(f"sensor reading has {reading.size} neurons, but the models have {n}")
    # A contact's first spike is at its arrival, so between firing contacts this is decode_displacement's check.
    if t < state.prev_arrival:
        raise ValueError(f"inter-packet interval must be finite and >= 0, got {t - state.prev_arrival}")

    encoder = state.encoder
    # nonzero of a 1-D mask is flatnonzero: its ids ascending, as intp.
    active = (reading > encoder.sparsity_threshold).nonzero()[0]
    # Fancy indexing copies, so the loop keeps no view of the caller's array.
    values = reading[active]
    arrival = t + 0.0
    dt = displacement = None
    if state.prev_active.size and active.size:
        dt = arrival - state.prev_arrival
        displacement = decode_displacement(dt, direction, latency)
        # Rounding is monotone, so the last rank's offset gives the last pre spike. Contacts that overlap or touch
        # need spike times: encode ranks the active activations as it would the whole reading, so its times, in
        # position order, are the active ids'.
        last_pre = state.prev_arrival + _offsets(encoder.tau_base, state.prev_values.size)[-1]
        times = None if last_pre < arrival else (
            encode(state.prev_values, encoder, arrival=state.prev_arrival).id_time_arrays[1],
            encode(values, encoder, arrival=arrival).id_time_arrays[1])
        totals = _pair_scores(state.weight_stack, _causal_index(state.prev_active, active, n, times))
    else:
        totals = np.zeros(state.weight_stack.shape[1])
    # Evidence may be set after construction: the step's one check of it, before any state changes.
    if state.evidence.n_classes != totals.size:
        raise ValueError("evidence state and model list disagree on class count")
    best, error = state.evidence._observe(_log_softmax(totals))

    diagnostics = StepDiagnostics(
        step=state.step,
        dt=dt,
        displacement=displacement,
        scores=totals.tolist(),
        best=best,
        prediction_error=error,
    )
    state.prev_arrival, state.prev_active, state.prev_values = arrival, active, values
    state.step += 1
    state.clock = t + state.inter_contact_interval
    return best, diagnostics
