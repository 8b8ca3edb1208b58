"""Spike-timing dependent plasticity and traversal-level training.

The pairwise rule: with dt = post_time - pre_time,

    dt > 0  ->  w + A_plus  * exp(-dt / tau_plus)   (pre before post: potentiate)
    dt < 0  ->  w - A_minus * exp( dt / tau_minus)  (post before pre: depress)
    dt = 0  ->  w unchanged

Training walks consecutive packet pairs of a traversal and applies the rule
to every (pre in packet_{t-1}, post in packet_t) synapse using global spike
times. Pairs within one packet and non-consecutive packet pairs are never
updated. Because each increment depends only on spike times, not on the
current weight, the increments of many pairs can be computed at once; only
their fold into the weights is sequential.

One increment function (:func:`_increments`) and one fold
(:func:`_fold`) serve every caller. Their input is a flat list of the
synapses to update, pair by pair and, within a pair, in the order of the
scalar double loop over (pre, post): each synapse's flat weight index and
its dt. Without ``w_max``, the fold is one ``np.add.at`` over the whole
list: it adds repeated indices in list order, so every synapse gets its
pairs' rounded additions in (traversal, pair) order, as one pair at a
time would give it. The pair loop stays for what a single scatter cannot
do: clipping to ``w_max`` after every pair, and non-finite weights, which
must raise at the pair (or the traversal) that first reads one, with the
pairs before it written. So the scatter runs only when every weight it
touches is finite, and the whole matrix when a later traversal starts in
the block; if a touched weight comes out non-finite, it is undone and the
pair loop runs instead. The pair loop also serves a matrix that is not
C-contiguous, which has no flat view to scatter into, and a block of one
pair, which is every online step: a pair never repeats an index, so the
pair loop gives it the scatter's bits, and the scatter's save, undo and
re-check would buy nothing. It reads, updates, clips and writes one
pair's synapses at a time, through flat ``take``/``put``. Either way a
synapse no pair touches is never written.

Two builders feed them. The training phase of :mod:`tempocode.experiments`
hands :func:`_fold_traversals` padded arrays from its block encoder: for
each contact of each traversal, the active ids in ascending order and
their global spike times, padded to the phase's largest active count M.
Each consecutive contact pair is an M x M slab of (pre, post) slots, and
the slots of real synapses, taken in row-major order, are the list. A
block holds as many whole traversals as fit in ``_SLOTS`` (pairs x M x M)
slots, and always at least one, so the working set is bounded however long
a phase is. :func:`train_on_traversal` and :func:`apply_packet_pair` build
the list from their packets' id and time arrays (:func:`_fold_packets`),
one traversal at a time. The online step of :mod:`tempocode.inference`
hands :func:`_fold` the one pair block it also scores.

The exactness rule: ``exp`` is the C library's, as :func:`stdp_update`
takes it from :mod:`math`, because numpy's float64 ``exp`` is its own SIMD
kernel, chosen per CPU, and may differ from libm by an ulp. It comes
through :func:`tempocode.rng._libm`, the package's one route to libm: a
float64 ``exp`` whose output overlaps its input one element ahead runs
numpy's scalar loop, which calls libm per element in C, and a probe at the
first call in a process falls back to :mod:`math` per element if that
route ever gives other bits. The only numpy float operations used
otherwise are correctly rounded ones (``+ - * /``,
``minimum``/``maximum``); and a packet pair touches each synapse at most
once, so the fold gives each synapse one rounded update per pair. Every
updated synapse therefore ends bit-identical to :func:`stdp_update`, the
scalar reference, applied pair after pair.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

import numpy as np

from .rng import _CHUNK, _libm
from .types import SpikePacket, StdpParams, WeightMatrix

#: (pairs x M x M) slots per block of a training phase. A 64-neuron
#: traversal of 20 contacts with up to about 30 active neurons per contact
#: fills it alone; a 3-neuron phase of 50 traversals fits in one block.
_SLOTS = 16384

_NON_FINITE = "stdp_update requires finite weight and spike times"


def stdp_update(w: float, pre_time: float, post_time: float, params: StdpParams = StdpParams()) -> float:
    """Apply the pairwise STDP rule to a single weight."""
    w = float(w)
    pre_time = float(pre_time)
    post_time = float(post_time)
    if not (math.isfinite(w) and math.isfinite(pre_time) and math.isfinite(post_time)):
        raise ValueError(_NON_FINITE)
    dt = post_time - pre_time
    if dt > 0.0:
        w = w + params.a_plus * math.exp(-dt / params.tau_plus)
    elif dt < 0.0:
        w = w - params.a_minus * math.exp(dt / params.tau_minus)
    if params.w_max is not None:
        w = min(max(w, -params.w_max), params.w_max)
    return w


def _check_packet_ids(packet: SpikePacket, n: int) -> None:
    """Reject neuron ids outside [0, n) in O(1).

    A packet keeps its ids in ascending order, so its first and last id
    bound all the others.
    """
    if packet:
        for nid in (next(iter(packet.spikes)), next(reversed(packet.spikes))):
            if nid < 0 or nid >= n:
                raise ValueError(f"packet neuron id {nid} out of range [0, {n})")


def _increments(dt: np.ndarray, params: StdpParams) -> np.ndarray:
    """The additive STDP increment of every element of a 1-D dt array.

    ``exp`` is libm's, through :func:`tempocode.rng._libm` (see the module
    docstring). Every window is at most 0, so no ``exp`` overflows. It runs
    in ``_CHUNK``-element chunks, which bounds its temporaries however large
    the array is. A dt
    of 0 gives ``-0.0``, and ``w + (-0.0) == w`` for every w, as
    :func:`stdp_update`'s no-op.
    """
    potentiate = dt > 0.0
    # -dt / tau_plus == dt / -tau_plus exactly: division rounds the magnitude alone.
    window = dt / np.where(potentiate, -params.tau_plus, params.tau_minus)
    for start in range(0, window.size, _CHUNK):
        chunk = window[start : start + _CHUNK]
        chunk[:] = _libm(np.exp, chunk)
    # w - a*e == w + (-a*e) exactly.
    window *= np.where(potentiate, params.a_plus, -params.a_minus)
    window[dt == 0.0] = -0.0
    return window


def _fold(
    weights: np.ndarray,
    index: np.ndarray,
    dt: np.ndarray,
    times,
    bounds: list[int],
    params: StdpParams,
    starts: range = range(0),
) -> None:
    """STDP-update ``weights`` in place over consecutive packet pairs, in pair order.

    ``index`` and ``dt`` hold one entry per synapse to update, pair by pair
    in scalar double-loop order: its flat index into ``weights`` and its
    post minus pre spike time. Pair p owns the entries ``bounds[p]:bounds[p
    + 1]`` and touches each synapse at most once. Without ``w_max``, with
    finite weights, a C-contiguous matrix and more than one pair, the pairs
    are applied by one scatter-add, else one pair at a time; see the module
    docstring.
    ``times`` iterates over
    arrays that hold every spike time of those synapses; it is read only if
    some dt is not finite, since finite times far apart can overflow dt and
    only a non-finite time is an error. Such a time raises ``ValueError``
    as :func:`stdp_update` does, before anything is written; so does a
    non-finite weight, before its pair writes. At each pair in ``starts`` a
    later traversal begins, and a matrix that holds a non-finite entry then
    raises :class:`WeightMatrix`'s error, as training a fresh matrix per
    traversal does.
    """
    if not np.isfinite(dt).all() and not all(np.isfinite(t).all() for t in times):
        raise ValueError(_NON_FINITE)
    increments = _increments(dt, params)
    # Only a C-contiguous matrix has a flat view to scatter into; reshape copies any other.
    # One pair never repeats an index, so the pair loop applies it as one scatter would.
    if (
        len(bounds) > 2
        and params.w_max is None
        and weights.flags.c_contiguous
        and (not starts or np.isfinite(weights).all())
    ):
        flat = weights.reshape(-1)
        before = flat.take(index)
        with np.errstate(over="ignore"):  # an overflow is redone, and warned of, by the pair loop
            np.add.at(flat, index, increments)
        if np.isfinite(flat.take(index)).all():
            return
        # A touched weight was or became non-finite: undo, and let the pair loop raise or keep it.
        flat.put(index, before)
    for p in range(len(bounds) - 1):
        if p in starts and not np.isfinite(weights).all():
            raise ValueError("weight matrix contains non-finite entries")
        lo, hi = bounds[p], bounds[p + 1]
        if lo == hi:
            continue
        synapses = index[lo:hi]
        w = weights.take(synapses)
        if not np.isfinite(w).all():
            raise ValueError(_NON_FINITE)
        new = w + increments[lo:hi]
        if params.w_max is not None:
            new = np.minimum(np.maximum(new, -params.w_max), params.w_max)
        weights.put(synapses, new)


def _fold_traversals(
    weights: np.ndarray, ids: np.ndarray, times: np.ndarray, counts: np.ndarray, params: StdpParams
) -> None:
    """STDP-update ``weights`` in place over the consecutive contacts of every traversal, in order.

    ``ids`` and ``times`` are (traversals, contacts, M): each contact's
    active neuron ids in ascending order and their global spike times,
    valid in the first ``counts`` (traversals, contacts) slots and ignored
    past them. Ids must lie in [0, N). Blocks of whole traversals go to
    :func:`_fold`, each within the ``_SLOTS`` budget.
    """
    n_traversals, n_contacts, m = ids.shape
    if n_contacts < 2 or m == 0:
        return
    n = weights.shape[0]
    pairs = n_contacts - 1
    step = max(1, _SLOTS // (pairs * m * m))
    present = np.arange(m) < counts[..., None]
    for first in range(0, n_traversals, step):
        block_ids, block_times, block_present = (a[first : first + step] for a in (ids, times, present))
        valid = block_present[:, :-1, :, None] & block_present[:, 1:, None, :]
        index = (block_ids[:, :-1, :, None] * n + block_ids[:, 1:, None, :])[valid]
        dt = (block_times[:, 1:, None, :] - block_times[:, :-1, :, None])[valid]
        pre_post = (block_times[:, :-1, :, None], block_times[:, 1:, None, :])
        synapse_times = (np.broadcast_to(t, valid.shape)[valid] for t in pre_post)
        sizes = counts[first : first + step]
        bounds = list(accumulate((sizes[:, :-1] * sizes[:, 1:]).ravel().tolist(), initial=0))
        # Each traversal of the block but the phase's first starts anew.
        starts = range(0 if first else pairs, len(bounds) - 1, pairs)
        _fold(weights, index, dt, synapse_times, bounds, params, starts)


def _fold_packets(weights: np.ndarray, packets: Sequence[SpikePacket], params: StdpParams) -> None:
    """:func:`_fold` over the consecutive pairs of one traversal's packets.

    Each packet's ids and global times come from
    :attr:`SpikePacket.id_time_arrays`, built once per packet however
    many pairs it is part of. Ids are not checked.
    """
    n = weights.shape[0]
    pairs = [(prev.id_time_arrays, cur.id_time_arrays) for prev, cur in zip(packets, packets[1:])]
    if not pairs:
        return
    index = np.concatenate([(prev_ids[:, None] * n + cur_ids).ravel() for (prev_ids, _), (cur_ids, _) in pairs])
    dt = np.concatenate([(post - pre[:, None]).ravel() for (_, pre), (_, post) in pairs])
    # A pair with an empty packet updates nothing, so its times go unread.
    times = (t for (_, pre), (_, post) in pairs if pre.size and post.size for t in (pre, post))
    bounds = list(accumulate((pre.size * post.size for (_, pre), (_, post) in pairs), initial=0))
    _fold(weights, index, dt, times, bounds, params)


def apply_packet_pair(
    weights: np.ndarray,
    prev_packet: SpikePacket,
    cur_packet: SpikePacket,
    params: StdpParams = StdpParams(),
) -> None:
    """STDP-update ``weights`` in place over prev x cur neuron pairs.

    A neuron active in both packets updates its own diagonal entry like any
    other synapse. Every updated synapse ends bit-identical to
    :func:`stdp_update` applied to it, and a non-finite weight or spike time
    on an updated synapse raises ``ValueError`` as it does there.
    """
    n = weights.shape[0]
    _check_packet_ids(prev_packet, n)
    _check_packet_ids(cur_packet, n)
    _fold_packets(weights, (prev_packet, cur_packet), params)


def train_on_traversal(
    w: WeightMatrix,
    packets: Sequence[SpikePacket],
    params: StdpParams = StdpParams(),
) -> WeightMatrix:
    """Train a copy of ``w`` on the consecutive packet pairs of one traversal.

    Packets must be temporally ordered and non-overlapping (the traversal
    invariant); 0 or 1 packets leave the matrix unchanged. Neuron ids outside
    [0, N) are rejected.
    """
    out = w.copy()
    for packet in packets:
        _check_packet_ids(packet, out.n)
    _fold_packets(out.w, packets, params)
    return out
