"""The complete exploration step: encode, decode, score, accumulate.

One call to :func:`exploration_step` advances a sensorimotor loop by a
single contact:

1. encode the sensor reading into a spike packet,
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
all causally ordered (pre, post) neuron pairs of the two packets. Empty
packets score 0 against every model, yielding uniform likelihoods. This
all-causal-pairs rule is :func:`_causal_index` plus :func:`left_sum`,
through :func:`alignment_scores` and :func:`exploration_step`; the
experiments' leading-pair rule is :func:`tempocode.experiments._pathway_scores`.

:func:`_causal_index` is the one scoring order. It builds a packet pair's
flat synapse indices ``i * N + j``, row-major and so in the order of the
scalar double loop it replaces (ascending pre id, then ascending post id),
and keeps the causally ordered ones; weights gathered there and folded by
:func:`left_sum` give every score its bits. It compares spike times pair
by pair only when the packets overlap or touch; packets a contact interval
apart, as on the loop's own clock, are causal throughout.
:func:`alignment_scores` checks the packets' neuron ids once per distinct
neuron count and gathers each model's matrix at that index;
:func:`alignment_score` is its one-model case. :func:`left_sum` is the one
ordered sum that scores and reports use: one ``np.add.accumulate`` along
each row, whose last column plus 0.0 is the fold from 0.0 bit for bit (a
float sum is -0.0 only when both terms are), with no column of zeros
joined on first.

:class:`LoopState` reads the frozen models once, at construction: it
stacks their weights into one read-only array, checks once that they are
finite, and every step scores against that stack with one ``take``.
:func:`exploration_step` checks each input once per step, before any
state changes: its motor command, the reading (``encode`` checks its
values, the step its length against the models' neuron count), the
interval (``decode_displacement`` rejects a packet that arrives before
the previous one) and the temperature (``log_likelihoods_from_scores``).
Every id of the packet it encodes is then in range, as is every id of the
previous packet, so each paired step hands both packets unchecked to
:func:`_causal_index`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .encoding import EncoderParams, encode
from .evidence import EvidenceState, prediction_error
from .latency import arrival_time, decode_displacement
from .stdp import _check_packet_ids
from .types import Displacement, LatencyParams, SpikePacket, WeightMatrix


@dataclass(frozen=True)
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
    accumulate -0.0. (``np.add.reduce`` over another axis is not a left
    fold.) A 1-D input gives a float, an m x k input the array of its m row
    sums; a row of no terms sums to 0.0.
    """
    terms = np.asarray(values, dtype=float)
    if terms.shape[-1]:
        totals = np.add.accumulate(terms, axis=-1)[..., -1] + 0.0
    else:
        totals = np.zeros(terms.shape[:-1])
    return float(totals) if totals.ndim == 0 else totals


def alignment_scores(
    prev_packet: SpikePacket | None, cur_packet: SpikePacket | None, models: list[ObjectModel]
) -> list[float]:
    """Each model's sum of weights over causally ordered pre/post pairs.

    A pair (i in prev, j in cur) contributes w[i, j] when i's global spike
    time precedes j's; with non-overlapping packets that is every pair.
    Missing or empty packets score 0 against every model. Scores come back
    in model order. Neuron ids outside a model's [0, n) raise ``ValueError``.
    """
    if not models or prev_packet is None or cur_packet is None or not prev_packet or not cur_packet:
        return [0.0] * len(models)
    sizes = {m.weights.n for m in models}
    for n in sizes:
        _check_packet_ids(prev_packet, n)
        _check_packet_ids(cur_packet, n)
    causal = {n: _causal_index(prev_packet, cur_packet, n) for n in sizes}
    return left_sum(np.stack([m.weights.w.take(causal[m.weights.n]) for m in models])).tolist()


def _causal_index(prev: SpikePacket, cur: SpikePacket, n: int) -> np.ndarray:
    """Flat synapse indices ``i * n + j`` of two non-empty packets' causally ordered (pre i, post j) pairs.

    They come row-major, in the scalar double loop's order (ascending pre
    id, then post id), so a :func:`left_sum` of weights gathered there keeps
    every score's bits. Spike times are compared pair by pair only when the
    packets overlap or touch: rounding is monotone, so ``prev.arrival`` plus
    its largest offset is the last pre spike time, and ``cur.arrival`` (its
    offset-0 spike's time) the first post spike time.
    """
    (prev_ids, pre_times), (cur_ids, post_times) = prev.id_time_arrays, cur.id_time_arrays
    index = (prev_ids[:, None] * n + cur_ids).ravel()
    if prev.arrival + max(prev.spikes.values()) < cur.arrival:
        return index
    return index[(pre_times[:, None] < post_times).ravel()]


def alignment_score(prev_packet: SpikePacket | None, cur_packet: SpikePacket | None, model: ObjectModel) -> float:
    """One model's alignment score; see :func:`alignment_scores`."""
    return alignment_scores(prev_packet, cur_packet, [model])[0]


def log_likelihoods_from_scores(scores, temperature: float = 1.0) -> np.ndarray:
    """Normalized log-likelihoods: log softmax of scores / temperature.

    ``exp`` and ``log`` come from numpy, whose float64 kernels numpy picks
    for the CPU it runs on, so these bits, and the evidence and lambda
    built on them, are not portable across CPUs: on an AVX512F Xeon,
    ``np.log`` and ``math.log`` disagree in the last bit on about 0.09% of
    inputs in [1, 8] (see also :meth:`EvidenceState.update`). A score that
    is not finite, or that overflows once divided by the temperature,
    raises ``ValueError`` naming its index and value: its softmax would be
    NaN.
    """
    _check_temperature(temperature)
    raw = np.asarray(scores, dtype=float)
    if raw.size < 1:
        raise ValueError("need at least one score")
    s = raw / temperature
    finite = np.isfinite(s)
    if not np.logical_and.reduce(finite):
        i = int(finite.argmin())
        raise ValueError(f"score {i} / temperature must be finite, got {raw[i]} / {temperature}")
    s -= s.max()
    s -= np.log(np.exp(s).sum())
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


def _check_temperature(temperature: float) -> None:
    """Reject a temperature that is not positive, NaN included."""
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")


#: A step's stages in execution order: one that times no packet pair, then one that does.
_STAGES = ("encode", "score", "update", "adapt")
_TIMED_STAGES = ("encode", "latency", "decode", "score", "update", "adapt")


@dataclass
class StepDiagnostics:
    """Everything one exploration step measured, in execution order."""

    step: int
    dt: float | None
    displacement: Displacement | None
    scores: list[float]
    best: int
    prediction_error: float
    stage_order: tuple[str, ...]

    def to_json(self) -> str:
        """One JSON-lines record for diagnostics streaming."""
        return json.dumps(
            {
                "step": self.step,
                "dt": self.dt,
                "displacement": None if self.displacement is None else list(self.displacement.to_array()),
                "scores": self.scores,
                "best": self.best,
                "prediction_error": self.prediction_error,
                "stage_order": list(self.stage_order),
            }
        )


@dataclass
class LoopState:
    """Mutable state of one sensorimotor inference loop (single-threaded).

    The frozen per-object ``models`` are read once, here: their weights are
    copied into ``weight_stack``, one read-only (models, N*N) array that
    every step scores against, so a later change to a model's matrix does
    not reach the loop. A step is a pure function of (state, input). When
    no explicit contact time is supplied, contacts are assumed to arrive
    ``inter_contact_interval`` seconds apart.
    ``temperature`` must be positive. It may be set after construction, so
    each step checks it once more, in :func:`log_likelihoods_from_scores`,
    before it changes any state. Weights and ``inter_contact_interval``
    (above the encoder's span) must be finite.
    """

    models: list[ObjectModel]
    evidence: EvidenceState = None  # type: ignore[assignment]
    encoder: EncoderParams = EncoderParams()
    temperature: float = 1.0
    inter_contact_interval: float = 0.020
    prev_packet: SpikePacket | None = None
    step: int = 0
    clock: float = 0.0
    weight_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.models:
            raise ValueError("need at least one object model")
        n = self.models[0].weights.n
        for m in self.models:
            if m.weights.n != n:
                raise ValueError("object models disagree on neuron count")
        if self.evidence is None:
            self.evidence = EvidenceState(len(self.models))
        if self.evidence.n_classes != len(self.models):
            raise ValueError("evidence state and model list disagree on class count")
        if not (math.isfinite(self.inter_contact_interval) and self.inter_contact_interval > self.encoder.tau_base):
            raise ValueError(f"inter_contact_interval must exceed the packet span, got {self.inter_contact_interval}")
        if self.prev_packet is not None:
            _check_packet_ids(self.prev_packet, n)
        _check_temperature(self.temperature)
        self.weight_stack = np.stack([m.weights.w.reshape(-1) for m in self.models])
        finite = np.isfinite(self.weight_stack).all(axis=1)
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
    and around empty packets, and a pair with an empty packet scores 0
    against every model. A ``contact_time`` whose packet arrives before the
    previous packet raises ``ValueError``. A step that raises changes no
    state.
    """
    latency, direction = _check_motor(motor)
    t = state.clock if contact_time is None else float(contact_time)

    packet = encode(sensor_reading, state.encoder, arrival=t)
    # encode has checked that the reading is 1-D; every id is in range once its length is the models'.
    n = state.models[0].weights.n
    if len(sensor_reading) != n:
        raise ValueError(f"sensor reading has {len(sensor_reading)} neurons, but the models have {n}")

    prev_arrival = arrival_time(state.prev_packet)
    cur_arrival = arrival_time(packet)
    dt = displacement = None
    if prev_arrival is not None and cur_arrival is not None:
        dt = cur_arrival - prev_arrival
        displacement = decode_displacement(dt, direction, latency)

    if state.prev_packet and packet:
        totals = left_sum(state.weight_stack.take(_causal_index(state.prev_packet, packet, n), axis=1))
    else:
        totals = np.zeros(len(state.models))
    # The one temperature check of a step, before any state changes.
    ll = log_likelihoods_from_scores(totals, state.temperature)

    state.evidence.update(ll)
    best = state.evidence.best_hypothesis()
    error = prediction_error(ll, best)
    state.evidence.adapt_lambda(best, error)

    diagnostics = StepDiagnostics(
        step=state.step,
        dt=dt,
        displacement=displacement,
        scores=totals.tolist(),
        best=best,
        prediction_error=error,
        stage_order=_STAGES if dt is None else _TIMED_STAGES,
    )
    state.prev_packet = packet
    state.step += 1
    state.clock = t + state.inter_contact_interval
    return best, diagnostics
