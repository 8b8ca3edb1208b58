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
digests in ``bench/golden.json`` depend on this order.

The threshold comparison is strict: activation must exceed the threshold to
fire. An input with no super-threshold neuron yields an empty (silent)
packet.

:func:`encode` builds each packet once, without the public
:class:`~tempocode.types.SpikePacket` constructor's re-sort and re-check.
Its construction guarantees ascending int ids (the active ids are listed
in id order), finite non-negative float offsets and a zero minimum (rank 0
gets ``tau_base * 0.0``, and ``tau_base`` is positive and finite). Two
invariants still need a check, with the constructor's ``ValueError``: a
finite ``arrival``, and pairwise distinct offsets, which a subnormal
``tau_base`` can round together. ``_from_ordered`` also builds the
packet's :attr:`~tempocode.types.SpikePacket.id_time_arrays`, by that
property's rule (each global time is Python's ``arrival + offset``, which
overflows to ``inf`` without a warning), so no later reader builds them.

A training phase encodes all its traversals at once with
:func:`_encode_block`, into padded arrays, and gives every spike
:func:`encode`'s bits. One stable ``argsort`` of the negated activations
orders neurons by descending activation with ties in ascending id, as
``sorted(..., reverse=True)`` does; numpy's sort, like Python's, holds
``-0.0`` and ``0.0`` equal. Active neurons lie above the threshold and the
others do not, so the active ones take the first n places, with
``encode``'s ranks. One stable ``argsort`` of the inactive mask lists the
active ids first, in ascending order. The offset is ``tau_base * (rank /
n)`` in that order, where numpy divides the two exact integers with one
rounding, as Python's ``int / int`` does, and each global time is one
addition, ``time + offset``, as :attr:`SpikePacket.id_time_arrays` makes
it. :func:`_accepted_rows` makes :func:`encode_traversal`'s two checks on
the block's active counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import SpikePacket, Traversal, as_features


@dataclass(frozen=True)
class EncoderParams:
    """Packet time span and firing threshold."""

    tau_base: float = 0.010
    sparsity_threshold: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.tau_base) and self.tau_base > 0.0):
            raise ValueError(f"tau_base must be positive and finite, got {self.tau_base}")
        if not math.isfinite(self.sparsity_threshold):
            raise ValueError(f"sparsity_threshold must be finite, got {self.sparsity_threshold}")


def encode(features, params: EncoderParams = EncoderParams(), *, arrival: float = 0.0) -> SpikePacket:
    """Convert a feature vector into a rank-order spike packet.

    Neurons with activation strictly greater than the sparsity threshold
    fire, ordered by descending activation (ties by ascending neuron id);
    all others stay silent. Raises ValueError on non-finite activations.
    The packet comes with its :attr:`~tempocode.types.SpikePacket.id_time_arrays`
    already built.
    """
    values = as_features(features).tolist()
    if not math.isfinite(arrival):
        raise ValueError(f"packet arrival time must be finite, got {arrival}")
    threshold = params.sparsity_threshold
    active = [i for i, x in enumerate(values) if x > threshold]
    n = len(active)
    tau_base = float(params.tau_base)
    # Keys in ascending id order; Python's sort is stable under reverse=True, so ties keep ascending id.
    spikes = dict.fromkeys(active)
    for rank, nid in enumerate(sorted(active, key=values.__getitem__, reverse=True)):
        spikes[nid] = tau_base * (rank / n)
    offsets = spikes.values()
    if len(set(offsets)) != n:
        raise ValueError(f"spike offsets must be pairwise distinct: {list(offsets)}")
    return SpikePacket._from_ordered(spikes, arrival)


def encode_traversal(traversal: Traversal, params: EncoderParams = EncoderParams()) -> list[SpikePacket]:
    """Encode every contact of a traversal, stamping global arrival times.

    Rejects traversals whose inter-contact gaps do not exceed the packet
    span, since overlapping packets would break causal pair ordering.
    """
    prev_time = None
    packets = []
    for features, t in traversal.contacts:
        if prev_time is not None and t - prev_time <= params.tau_base:
            raise ValueError(
                f"contact gap {t - prev_time} s must exceed the packet span tau_base={params.tau_base} s"
            )
        packets.append(encode(features, params, arrival=t))
        prev_time = t
    return packets


def _encode_block(block: np.ndarray, times, params: EncoderParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packets of every traversal of a (traversals, contacts, neurons) block, as padded arrays.

    Every traversal's contacts occur at ``times``. Returns ``(ids,
    spike_times, counts)``: the active neuron ids of each contact in
    ascending order and their global spike times, both (traversals,
    contacts, M) with M the largest active count, valid in the first
    ``counts`` (traversals, contacts) slots. Nothing is checked; see
    :func:`_accepted_rows`.
    """
    active = block > params.sparsity_threshold
    counts = np.count_nonzero(active, axis=-1)
    m = int(counts.max(initial=0))
    ids = np.argsort(~active, axis=-1, kind="stable")[..., :m]
    order = np.argsort(-block, axis=-1, kind="stable")
    rank_of = np.empty_like(order)
    np.put_along_axis(rank_of, order, np.arange(block.shape[-1]), axis=-1)
    # A padded slot gets rank 0, so its time is the contact's and stays finite.
    ranks = np.where(np.arange(m) < counts[..., None], np.take_along_axis(rank_of, ids, axis=-1), 0)
    offsets = float(params.tau_base) * (ranks / np.maximum(counts, 1)[..., None])
    # Python's float addition overflows to inf without a warning; the fold rejects such a time.
    with np.errstate(over="ignore"):
        spike_times = np.asarray(times, dtype=float)[:, None] + offsets
    return ids, spike_times, counts


def _accepted_rows(counts: np.ndarray, times, params: EncoderParams) -> int:
    """How many leading traversals :func:`encode_traversal` accepts, of those ``counts`` describes.

    ``counts`` is (traversals, contacts): the active count of every
    contact, and every traversal's contacts occur at ``times``. A contact
    gap within the packet span fails every traversal, so the first. A
    contact fails when its n active neurons get fewer than n distinct
    offsets ``tau_base * (r / n)``, as a subnormal ``tau_base`` can make
    them; that depends on n alone, so each count is checked once.
    """
    if any(t - prev <= params.tau_base for prev, t in zip(times, times[1:])):
        return 0
    tau_base = float(params.tau_base)
    # A set, not np.unique: np.unique imports numpy.ma, which a CLI run needs nowhere else.
    colliding = [n for n in set(counts.ravel().tolist()) if len({tau_base * (r / n) for r in range(n)}) != n]
    rejected = np.flatnonzero(np.isin(counts, colliding).any(axis=-1))
    return int(rejected[0]) if rejected.size else len(counts)


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
    """
    n_active = int(n_active)
    if n_active < 1:
        raise ValueError(f"n_active must be >= 1, got {n_active}")
    if mode == "ordered":
        return math.lgamma(n_active + 1) / math.log(2.0)
    if mode == "unordered":
        if n_total is None:
            raise ValueError("unordered capacity requires n_total")
        n_total = int(n_total)
        if n_total < n_active:
            raise ValueError(f"n_total={n_total} must be >= n_active={n_active}")
        log_comb = math.lgamma(n_total + 1) - math.lgamma(n_active + 1) - math.lgamma(n_total - n_active + 1)
        return log_comb / math.log(2.0)
    raise ValueError(f"mode must be 'ordered' or 'unordered', got {mode!r}")
