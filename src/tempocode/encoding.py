"""Rank-order spike encoding and code-capacity utilities.

A dense feature vector becomes a brief burst of spikes in which the most
strongly activated neuron fires first. With n neurons above the sparsity
threshold, the neuron of rank r (0-indexed, descending activation) fires at
offset tau_base * (r / n), so the packet spans [0, tau_base). Equal
activations fire in ascending neuron-id order (stable tie-break), which
keeps packets bit-identical across implementations.

The evaluation order of the offset is part of that bit-exactness contract:
tau_base * (r / n) and (tau_base * r) / n can differ in the last bit (at
tau_base = 0.010, r = 1, n = 3 they do). The frozen ``online`` golden
digests in ``bench/golden.json`` depend on this order through the models
that workload trains, not through its inference steps, which compute no
offset for contacts that do not overlap.

The threshold comparison is strict: activation must exceed the threshold to
fire. An input with no super-threshold neuron yields an empty (silent)
packet.

The span is a normal double: :class:`EncoderParams` requires a finite
``tau_base >= sys.float_info.min`` (2**-1022). Then no two ranks share an
offset: ``fl(r / n)`` rises by at least ``1/n - 2**-53`` per rank, so for
n <= 2**50 (8 PiB of features) neighbouring exact products differ by more
than two ulps, and rounding to nearest cannot merge them. At a subnormal
5e-324, ``tau_base * (1 / 2)`` would be 0.0.

:func:`encode` builds each packet once, without the public
:class:`~tempocode.types.SpikePacket` constructor's re-sort and re-check.
Its construction guarantees ascending int ids (the active ids are listed
in id order) and finite, non-negative, distinct float offsets with a zero
minimum (rank 0 gets ``tau_base * 0.0``); only ``arrival`` needs the
constructor's finiteness check and ``ValueError``. The packet's
:attr:`~tempocode.types.SpikePacket.id_time_arrays` are built when they
are read, by that property's rule (each global time is Python's ``arrival +
offset``, which overflows to ``inf`` without a warning).

A training phase encodes all its traversals at once with
:func:`_encode_block`, into padded arrays in firing order, with
:func:`encode`'s bits. An ``argsort`` of the negated activations lists
neurons by descending activation, so the n active ones come first and
place r holds rank r; only those n places are ever read. Fired neurons
lie strictly above silent ones, so numpy's default ``argsort`` places
them as ``sorted(..., reverse=True)`` does unless two of them tie. The
block's sorted activations, cut to the largest active count, show first
whether two do (numpy's sort, like Python's, holds ``-0.0`` and ``0.0``
equal); the one ``argsort`` is then the stable one, ties in ascending
id, where they do, and the default one where they do not. A rank's offset
is ``tau_base * (r / n)``, where numpy divides the two exact integers
with one rounding, as Python does, and its time is ``time + offset``, as
:attr:`SpikePacket.id_time_arrays` makes it.
:func:`_check_gaps` checks the phase's contact gaps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .types import SpikePacket, Traversal, as_features


@dataclass(frozen=True)
class EncoderParams:
    """Packet time span, a finite normal double (see the module docstring), and firing threshold."""

    tau_base: float = 0.010
    sparsity_threshold: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.tau_base) and self.tau_base >= sys.float_info.min):
            raise ValueError(f"tau_base must be finite and at least {sys.float_info.min}, got {self.tau_base}")
        if not math.isfinite(self.sparsity_threshold):
            raise ValueError(f"sparsity_threshold must be finite, got {self.sparsity_threshold}")


@cache
def _offsets(tau_base: float, n: int) -> tuple[float, ...]:
    """The spike offset of each rank r of ``n`` active neurons, in rank order: ``tau_base * (r / n)``."""
    return tuple(tau_base * (r / n) for r in range(n))


def encode(features, params: EncoderParams = EncoderParams(), *, arrival: float = 0.0) -> SpikePacket:
    """Convert a feature vector into a rank-order spike packet.

    Neurons with activation strictly greater than the sparsity threshold
    fire, ordered by descending activation (ties by ascending neuron id);
    all others stay silent. Raises ValueError on non-finite activations.
    """
    values = as_features(features).tolist()
    if not math.isfinite(arrival):
        raise ValueError(f"packet arrival time must be finite, got {arrival}")
    threshold = params.sparsity_threshold
    active = [i for i, x in enumerate(values) if x > threshold]
    n = len(active)
    # Keys in ascending id order; Python's sort is stable under reverse=True, so ties keep ascending id.
    spikes = dict.fromkeys(active)
    spikes.update(zip(sorted(active, key=values.__getitem__, reverse=True), _offsets(float(params.tau_base), n)))
    return SpikePacket._from_ordered(spikes, arrival)


def encode_traversal(traversal: Traversal, params: EncoderParams = EncoderParams()) -> list[SpikePacket]:
    """Encode every contact of a traversal, stamping global arrival times.

    Rejects traversals whose inter-contact gaps do not exceed the packet
    span, since overlapping packets would break causal pair ordering.
    """
    _check_gaps([t for _, t in traversal.contacts], params)
    return [encode(features, params, arrival=t) for features, t in traversal.contacts]


def _check_gaps(times, params: EncoderParams) -> None:
    """Raise on the first gap between consecutive contact ``times`` that does not exceed the packet span."""
    for prev, t in zip(times, times[1:]):
        if t - prev <= params.tau_base:
            raise ValueError(f"contact gap {t - prev} s must exceed the packet span tau_base={params.tau_base} s")


def _firing_order(block: np.ndarray, counts: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` neuron ids of each contact of ``block`` by descending activation, ties in ascending id.

    Past a contact's ``counts`` fired ids the order is arbitrary, since
    nothing reads it. The ``argsort`` is the stable one only where two
    fired activations tie (see the module docstring).
    """
    ranked = np.negative(block)
    top = np.sort(ranked, axis=-1)[..., :m]
    tied = ((top[..., 1:] == top[..., :-1]) & (np.arange(1, m) < counts[..., None])).any()
    del top  # the sorted copy goes before the ids are made, so at most two block-sized arrays live at once
    return ranked.argsort(axis=-1, kind="stable" if tied else None)[..., :m]


def _encode_block(block: np.ndarray, times, params: EncoderParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packets of every traversal of a (traversals, contacts, neurons) block, as padded arrays.

    Every traversal's contacts occur at ``times``. Returns ``(ids,
    spike_times, counts)``: the active neuron ids of each contact in firing
    order and their global spike times, both (traversals, contacts, M) with
    M the largest active count, valid in the first ``counts`` (traversals,
    contacts) slots. The contact gaps are not checked; see :func:`_check_gaps`.
    """
    counts = np.count_nonzero(block > params.sparsity_threshold, axis=-1)
    m = int(counts.max(initial=0))
    ids = _firing_order(block, counts, m)
    # A padded slot gets rank 0, so its time is the contact's and stays finite.
    ranks = np.where(np.arange(m) < counts[..., None], np.arange(m), 0)
    offsets = float(params.tau_base) * (ranks / np.maximum(counts, 1)[..., None])
    # Python's float addition overflows to inf without a warning; the fold rejects such a time.
    with np.errstate(over="ignore"):
        spike_times = np.asarray(times, dtype=float)[:, None] + offsets
    return ids, spike_times, counts


def _log_factorial(name: str, n: int) -> float:
    """``math.lgamma(n + 1)``; a ``ValueError`` naming ``name`` when it, or ``n`` itself, overflows a double."""
    try:
        return math.lgamma(n + 1)
    except OverflowError:
        raise ValueError(f"{name} is too large: the log of {name}! overflows a double") from None


def code_capacity_bits(n_active: int, mode: str = "ordered", n_total: int | None = None) -> float:
    """Information capacity of one spike volley, in bits.

    ``ordered`` returns log2(n_active!), the capacity of a code in which
    the firing order of the active neurons carries the message. ``unordered``
    returns log2(C(n_total, n_active)), the capacity of a sparse code that
    only records which n_active of n_total neurons fired. Both are computed
    via log-gamma so large populations stay exact to double precision.

    Since C(N, k) = N! / (k! (N - k)!), ordered capacity log2(N!) is at
    least unordered capacity log2(C(N, k)) for 1 <= k < N, with equality
    only at N = 2, k = 1, where both are 1 bit (acceptance criterion 10).
    A count whose log-factorial overflows a double raises ``ValueError``
    naming it.
    """
    n_active = int(n_active)
    if n_active < 1:
        raise ValueError(f"n_active must be >= 1, got {n_active}")
    if mode == "ordered":
        return _log_factorial("n_active", n_active) / math.log(2.0)
    if mode == "unordered":
        if n_total is None:
            raise ValueError("unordered capacity requires n_total")
        n_total = int(n_total)
        if n_total < n_active:
            raise ValueError(f"n_total={n_total} must be >= n_active={n_active}")
        # n_total is the largest of the three, so if its log-factorial is finite, so are the others.
        log_comb = _log_factorial("n_total", n_total) - math.lgamma(n_active + 1) - math.lgamma(n_total - n_active + 1)
        return log_comb / math.log(2.0)
    raise ValueError(f"mode must be 'ordered' or 'unordered', got {mode!r}")
