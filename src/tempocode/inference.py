"""The complete exploration step: encode, decode, learn, score, accumulate.

One call to :func:`exploration_step` advances a sensorimotor loop by a
single contact:

1. encode the sensor reading into a spike packet,
2. measure the inter-packet interval from arrival times,
3. decode the implied displacement from that interval,
4. STDP-update the active learning matrix over the consecutive packet pair,
5. score the pair against every frozen object model (causal alignment),
6. mix the resulting log-likelihoods into the evidence,
7. adapt the best hypothesis's memory coefficient from prediction error,
8. return the best hypothesis.

Scoring is defined purely from the trained weight matrices: the alignment
score of a packet pair for a model is the sum of that model's weights over
all causally ordered (pre, post) neuron pairs of the two packets. Empty
packets score 0 against every model, yielding uniform likelihoods.

:func:`alignment_scores` scores one packet pair against every model at once:
it checks the packets' neuron ids once per distinct neuron count, builds
the pair's id block, global times and causal mask once, gathers each
model's causal weights in the order of the scalar double loop it replaces
(ascending pre id, then ascending post id), and folds all the models' rows
in one :func:`left_sum` call, so every score keeps its bits.
:func:`alignment_score` is the one-model case of the same code path.
:func:`left_sum` is the one ordered sum that scores and reports use; STDP
inside the loop follows the exactness rule of :mod:`tempocode.stdp`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncoderParams, encode
from .evidence import EvidenceState, prediction_error
from .latency import arrival_time, decode_displacement
from .stdp import _check_packet_ids, _pair_block, apply_packet_pair
from .types import Displacement, LatencyParams, SpikePacket, StdpParams, WeightMatrix


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
    order, row by row; the leading 0.0 turns a lone -0.0 into 0.0, as a
    fold from 0.0 does. A 1-D input gives a float, an m x k input the array
    of its m row sums.
    """
    terms = np.asarray(values, dtype=float)
    start = np.zeros(terms.shape[:-1] + (1,))
    totals = np.add.accumulate(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]
    return float(totals) if totals.ndim == 0 else totals


def alignment_scores(
    prev_packet: SpikePacket | None, cur_packet: SpikePacket | None, models: list[ObjectModel]
) -> list[float]:
    """Each model's sum of weights over causally ordered pre/post pairs.

    A pair (i in prev, j in cur) contributes w[i, j] when i's global spike
    time precedes j's; with non-overlapping packets that is every pair.
    Missing or empty packets score 0 against every model. Scores come back
    in model order.
    """
    if not models or prev_packet is None or cur_packet is None or not prev_packet or not cur_packet:
        return [0.0] * len(models)
    sizes = {m.weights.n for m in models}
    for n in sizes:
        _check_packet_ids(prev_packet, n)
        _check_packet_ids(cur_packet, n)
    rows, cols, pre_times, post_times = _pair_block(prev_packet, cur_packet)
    causal = pre_times < post_times
    # Row-major flat indices of the causal pairs, in double-loop order.
    flat = {n: (rows * n + cols)[causal] for n in sizes}
    terms = np.stack([m.weights.w.take(flat[m.weights.n]) for m in models])
    return left_sum(terms).tolist()


def alignment_score(prev_packet: SpikePacket | None, cur_packet: SpikePacket | None, model: ObjectModel) -> float:
    """One model's alignment score; see :func:`alignment_scores`."""
    return alignment_scores(prev_packet, cur_packet, [model])[0]


def leading_pathway_score(prev_packet: SpikePacket | None, cur_packet: SpikePacket | None, model: ObjectModel) -> float:
    """Model weight along the leading (first-firing) neuron pair.

    The first spike of a packet is its most noise-robust feature: it names
    the most strongly driven neuron. Training potentiates the chain of
    leading neurons along an object's canonical sweep, so the weight on the
    (leading pre, leading post) synapse of a consecutive packet pair is an
    unambiguous direction signal even when threshold flicker makes the full
    active sets of two objects identical. Missing or empty packets score 0.
    """
    if prev_packet is None or cur_packet is None or not prev_packet or not cur_packet:
        return 0.0
    i, j = prev_packet.first_neuron(), cur_packet.first_neuron()
    n = model.weights.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"packet neuron id out of range [0, {n})")
    return float(model.weights.w[i, j])


def log_likelihoods_from_scores(scores, temperature: float = 1.0) -> np.ndarray:
    """Normalized log-likelihoods: log softmax of scores / temperature."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    s = np.asarray(scores, dtype=float) / temperature
    if s.size < 1:
        raise ValueError("need at least one score")
    s = s - s.max()
    return s - np.log(np.exp(s).sum())


def log_likelihoods(
    prev_packet: SpikePacket | None,
    cur_packet: SpikePacket | None,
    models: list[ObjectModel],
    temperature: float = 1.0,
) -> np.ndarray:
    """Per-class log-likelihoods from alignment scores (exp sums to 1)."""
    if not models:
        raise ValueError("need at least one object model")
    return log_likelihoods_from_scores(alignment_scores(prev_packet, cur_packet, models), temperature)


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
            }
        )


@dataclass
class LoopState:
    """Mutable state of one sensorimotor inference loop (single-threaded).

    ``learning_matrix`` is the active matrix mutated by online STDP; the
    frozen per-object ``models`` are only read. With ``learn=False`` a step
    is a pure function of (state, input). When no explicit contact time is
    supplied, contacts are assumed to arrive ``inter_contact_interval``
    seconds apart.
    """

    models: list[ObjectModel]
    evidence: EvidenceState = None  # type: ignore[assignment]
    encoder: EncoderParams = EncoderParams()
    stdp: StdpParams = StdpParams()
    temperature: float = 1.0
    inter_contact_interval: float = 0.020
    learn: bool = True
    learning_matrix: WeightMatrix | None = None
    prev_packet: SpikePacket | None = None
    step: int = 0
    clock: float = 0.0

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
        if self.learn and self.learning_matrix is None:
            self.learning_matrix = WeightMatrix.zeros(n)
        if self.learning_matrix is not None and self.learning_matrix.n != n:
            raise ValueError("learning matrix dimension does not match models")
        if self.inter_contact_interval <= self.encoder.tau_base:
            raise ValueError("inter-contact interval must exceed the encoder packet span")


def exploration_step(
    state: LoopState,
    sensor_reading,
    motor: tuple[float, float] = (1.0, 0.0),
    contact_time: float | None = None,
) -> tuple[int, StepDiagnostics]:
    """Advance the loop by one contact; returns (best hypothesis, diagnostics).

    ``motor`` is the (velocity, direction-in-radians) command the world
    executed; the velocity is taken as the decoder's assumed velocity.
    Interval measurement and displacement decoding are skipped on the first
    contact and around empty packets; STDP is skipped whenever either packet
    of the consecutive pair is empty or learning is disabled.
    """
    stages: list[str] = []
    t = state.clock if contact_time is None else float(contact_time)

    packet = encode(sensor_reading, state.encoder, arrival=t)
    stages.append("encode")

    prev_arrival = arrival_time(state.prev_packet)
    cur_arrival = arrival_time(packet)
    dt = None
    if prev_arrival is not None and cur_arrival is not None:
        dt = cur_arrival - prev_arrival
        stages.append("latency")

    displacement = None
    if dt is not None:
        velocity, direction = motor
        displacement = decode_displacement(dt, direction, LatencyParams(velocity))
        stages.append("decode")

    if state.learn and state.prev_packet is not None and state.prev_packet and packet:
        apply_packet_pair(state.learning_matrix.w, state.prev_packet, packet, state.stdp)
        stages.append("stdp")

    scores = alignment_scores(state.prev_packet, packet, state.models)
    ll = log_likelihoods_from_scores(scores, state.temperature)
    stages.append("score")

    state.evidence.update(ll)
    stages.append("update")

    best = state.evidence.best_hypothesis()
    error = prediction_error(ll, best)
    state.evidence.adapt_lambda(best, error)
    stages.append("adapt")

    diagnostics = StepDiagnostics(
        step=state.step,
        dt=dt,
        displacement=displacement,
        scores=scores,
        best=best,
        prediction_error=error,
        stage_order=tuple(stages),
    )
    state.prev_packet = packet
    state.step += 1
    state.clock = t + state.inter_contact_interval
    return best, diagnostics
