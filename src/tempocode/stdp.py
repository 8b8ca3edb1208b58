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
time would give it. With ``w_max``, which clips after every pair, the fold
reads, updates, clips and writes one pair's synapses at a time, through
flat ``take``/``put``. Either way a synapse no pair touches is never
written.

Weights are finite on entry: a :class:`WeightMatrix` rejects any other,
and the arrays of its ``zeros`` and ``copy`` are C-contiguous, so they have
a flat view to scatter into. Increments are finite too, so the one way a
weight leaves the finite doubles is an addition that overflows. That is
checked once per phase, after its last block: a weight that overflowed
raises one ``ValueError`` that names the keys bounding it
(``stdp.a_plus``, ``stdp.a_minus``, ``stdp.w_max``), and no matrix holding
it is returned or scored. Under ``w_max`` a sum that overflows clips to
``w_max``, as in :func:`stdp_update`, so no weight is left non-finite.

One fold builder feeds them. :func:`_fold_traversals` takes padded arrays:
for each contact of each traversal, the active ids in ascending order and
their global spike times, padded to the phase's largest active count M.
Each consecutive contact pair is an M x M slab of (pre, post) slots, and
the slots of real synapses, taken in row-major order, are the list. A
block holds as many whole traversals as fit in ``_SLOTS`` (pairs x M x M)
slots, and always at least one, so the working set is bounded however long
a phase is. The training phase of :mod:`tempocode.experiments` hands it a
block from its block encoder; :func:`train_on_traversal` pads its packets'
id and time arrays into a one-traversal block; and
:func:`apply_packet_pair` is a two-packet :func:`train_on_traversal`
written back into its array. Training is the only writer of weights: the
inference loop of :mod:`tempocode.inference` scores against frozen models
and learns nothing.

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
_OVERFLOW = "STDP weights overflowed: lower stdp.a_plus or stdp.a_minus, or set stdp.w_max to clip them"


class _WeightOverflow(ValueError):
    """A weight that overflowed in training, so that a caller can name its object."""


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
    with np.errstate(over="ignore"):  # a window past -1.8e308 is -inf, whose exp is stdp_update's 0.0
        window = dt / np.where(potentiate, -params.tau_plus, params.tau_minus)
    for start in range(0, window.size, _CHUNK):
        chunk = window[start : start + _CHUNK]
        chunk[:] = _libm(np.exp, chunk)
    # w - a*e == w + (-a*e) exactly.
    window *= np.where(potentiate, params.a_plus, -params.a_minus)
    window[dt == 0.0] = -0.0
    return window


def _fold(weights: np.ndarray, index: np.ndarray, dt: np.ndarray, bounds: list[int], params: StdpParams) -> None:
    """STDP-update the C-contiguous ``weights`` in place over consecutive packet pairs, in pair order.

    ``index`` and ``dt`` hold one entry per synapse to update, pair by pair
    in scalar double-loop order: its flat index into ``weights`` and its
    post minus pre spike time. Pair p owns the entries ``bounds[p]:bounds[p
    + 1]`` and touches each synapse at most once. Without ``w_max`` the
    pairs are applied by one ordered scatter-add, else one pair at a time,
    clipped before the next pair reads them; see the module docstring. A
    weight that overflows is left as ``inf`` for the caller's check.
    """
    increments = _increments(dt, params)
    flat = weights.reshape(-1)
    if params.w_max is None:
        with np.errstate(over="ignore"):  # an overflow raises once the phase is folded
            np.add.at(flat, index, increments)
        return
    for lo, hi in zip(bounds, bounds[1:]):
        synapses = index[lo:hi]
        with np.errstate(over="ignore"):  # the clip makes an overflowed sum exact, as in stdp_update
            new = flat.take(synapses) + increments[lo:hi]
        flat.put(synapses, np.minimum(np.maximum(new, -params.w_max), params.w_max))


def _fold_traversals(
    weights: np.ndarray, ids: np.ndarray, times: np.ndarray, counts: np.ndarray, params: StdpParams
) -> None:
    """STDP-update ``weights`` in place over the consecutive contacts of every traversal, in order.

    ``weights`` is C-contiguous with finite entries, as the arrays of
    :meth:`WeightMatrix.zeros` and :meth:`WeightMatrix.copy` are. ``ids``
    and ``times`` are (traversals, contacts, M): each contact's active
    neuron ids in ascending order and their global spike times, valid in
    the first ``counts`` (traversals, contacts) slots and ignored past them.
    Ids must lie in [0, N). Blocks of whole traversals go to :func:`_fold`,
    each within the ``_SLOTS`` budget. A non-finite spike time of a synapse
    to update raises ``ValueError`` as :func:`stdp_update` does, before its
    block writes; its times are read only if some dt is not finite, since
    finite times far apart can overflow dt and only a non-finite time is an
    error. A weight that overflowed in any block raises ``ValueError`` once
    all are folded, naming the keys that bound the weights.
    """
    n_traversals, n_contacts, m = ids.shape
    if n_contacts < 2 or m == 0:
        return
    n = weights.shape[0]
    step = max(1, _SLOTS // ((n_contacts - 1) * m * m))
    present = np.arange(m) < counts[..., None]
    for first in range(0, n_traversals, step):
        block_ids, block_times, block_present = (a[first : first + step] for a in (ids, times, present))
        valid = block_present[:, :-1, :, None] & block_present[:, 1:, None, :]
        index = (block_ids[:, :-1, :, None] * n + block_ids[:, 1:, None, :])[valid]
        pre, post = block_times[:, :-1, :, None], block_times[:, 1:, None, :]
        dt = (post - pre)[valid]
        synapse_times = (np.broadcast_to(t, valid.shape)[valid] for t in (pre, post))
        if not np.isfinite(dt).all() and not all(np.isfinite(t).all() for t in synapse_times):
            raise ValueError(_NON_FINITE)
        sizes = counts[first : first + step]
        bounds = list(accumulate((sizes[:, :-1] * sizes[:, 1:]).ravel().tolist(), initial=0))
        _fold(weights, index, dt, bounds, params)
    if not np.isfinite(weights).all():
        raise _WeightOverflow(_OVERFLOW)


def apply_packet_pair(
    weights: np.ndarray,
    prev_packet: SpikePacket,
    cur_packet: SpikePacket,
    params: StdpParams = StdpParams(),
) -> None:
    """STDP-update ``weights`` in place over prev x cur neuron pairs.

    A neuron active in both packets updates its own diagonal entry like any
    other synapse. The pair is trained as a two-packet traversal by
    :func:`train_on_traversal` and written back into ``weights``, whatever
    its memory layout, so every updated synapse ends bit-identical to
    :func:`stdp_update` applied to it. ``weights`` must be a valid
    :class:`WeightMatrix` array, finite throughout; a call that raises
    leaves it as it was.
    """
    weights[...] = train_on_traversal(WeightMatrix(weights), (prev_packet, cur_packet), params).w


def train_on_traversal(
    w: WeightMatrix,
    packets: Sequence[SpikePacket],
    params: StdpParams = StdpParams(),
) -> WeightMatrix:
    """Train a copy of ``w`` on the consecutive packet pairs of one traversal.

    Packets must be temporally ordered and non-overlapping (the traversal
    invariant); 0 or 1 packets leave the matrix unchanged. Neuron ids outside
    [0, N) are rejected. The packets' :attr:`SpikePacket.id_time_arrays`
    are padded into a one-traversal block for :func:`_fold_traversals`, so
    a weight that overflows raises its error and no matrix is returned.
    """
    out = w.copy()
    for packet in packets:
        _check_packet_ids(packet, out.n)
    counts = np.array([[len(packet) for packet in packets]], dtype=np.intp)
    ids = np.zeros((1, len(packets), counts.max(initial=0)), dtype=np.intp)
    times = np.zeros(ids.shape)
    for k, packet in enumerate(packets):
        ids[0, k, : len(packet)], times[0, k, : len(packet)] = packet.id_time_arrays
    _fold_traversals(out.w, ids, times, counts, params)
    return out
