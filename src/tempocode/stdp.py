"""Spike-timing dependent plasticity and traversal-level training.

The pairwise rule: with dt = post_time - pre_time,

    dt > 0  ->  w + A_plus  * exp(-dt / tau_plus)   (pre before post: potentiate)
    dt < 0  ->  w - A_minus * exp( dt / tau_minus)  (post before pre: depress)
    dt = 0  ->  w unchanged

Training walks consecutive packet pairs of a traversal and applies the rule
to every (pre in packet_{t-1}, post in packet_t) synapse using global spike
times. Pairs within one packet and non-consecutive packet pairs are never
updated. Because each increment depends only on spike times, not on the
current weight, training is an order-independent sum of increments.

:func:`apply_packet_pair` updates a whole prev x cur block of synapses in
one array pass and gives the same bits as calling :func:`stdp_update`, the
scalar reference, on every pair. The exactness rule: ``exp`` comes from
:mod:`math`, one element at a time, because numpy's vectorised ``exp`` may
differ by an ulp; the only numpy float operations used are correctly
rounded ones (``+ - * /``, ``minimum``/``maximum``); and a packet pair
touches each synapse at most once, so across the pairs of a traversal every
synapse still receives its increments in the same order.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .types import SpikePacket, StdpParams, WeightMatrix


def stdp_update(w: float, pre_time: float, post_time: float, params: StdpParams = StdpParams()) -> float:
    """Apply the pairwise STDP rule to a single weight."""
    w = float(w)
    pre_time = float(pre_time)
    post_time = float(post_time)
    if not (math.isfinite(w) and math.isfinite(pre_time) and math.isfinite(post_time)):
        raise ValueError("stdp_update requires finite weight and spike times")
    dt = post_time - pre_time
    if dt > 0.0:
        w = w + params.a_plus * math.exp(-dt / params.tau_plus)
    elif dt < 0.0:
        w = w - params.a_minus * math.exp(dt / params.tau_minus)
    if params.w_max is not None:
        w = min(max(w, -params.w_max), params.w_max)
    return w


def _check_packet_ids(packet: SpikePacket, n: int) -> None:
    for nid in packet.spikes:
        if nid < 0 or nid >= n:
            raise ValueError(f"packet neuron id {nid} out of range [0, {n})")


def _pair_block(prev_packet: SpikePacket, cur_packet: SpikePacket):
    """Neuron ids and global spike times of a packet pair as a prev x cur block.

    Returns ``(rows, cols, pre_times, post_times)``: rows and pre times as
    column vectors, cols and post times as rows. Both packets iterate in
    ascending neuron id, so the block's row-major order is the order of the
    scalar double loop over (pre, post).
    """
    rows = np.fromiter(prev_packet.spikes, np.intp, len(prev_packet))[:, None]
    cols = np.fromiter(cur_packet.spikes, np.intp, len(cur_packet))
    pre_times = np.array([prev_packet.arrival + t for t in prev_packet.spikes.values()])[:, None]
    post_times = np.array([cur_packet.arrival + t for t in cur_packet.spikes.values()])
    return rows, cols, pre_times, post_times


def apply_packet_pair(
    weights: np.ndarray,
    prev_packet: SpikePacket,
    cur_packet: SpikePacket,
    params: StdpParams = StdpParams(),
    include_self_pairs: bool = True,
) -> None:
    """STDP-update ``weights`` in place over prev x cur neuron pairs.

    ``include_self_pairs`` controls whether a neuron active in both packets
    updates its own diagonal entry; excluding self pairs keeps the diagonal
    at zero under training. Every updated synapse ends bit-identical to
    :func:`stdp_update` applied to it, and a non-finite weight or spike time
    on an updated synapse raises ``ValueError`` as it does there.
    """
    n = weights.shape[0]
    _check_packet_ids(prev_packet, n)
    _check_packet_ids(cur_packet, n)
    rows, cols, pre_times, post_times = _pair_block(prev_packet, cur_packet)
    w = weights[rows, cols]
    dt = post_times - pre_times
    if not (np.isfinite(w).all() and np.isfinite(dt).all()):
        finite = np.isfinite(w) & np.isfinite(pre_times) & np.isfinite(post_times)
        if not include_self_pairs:
            finite |= rows == cols  # an excluded self pair is never read
        if not finite.all():
            raise ValueError("stdp_update requires finite weight and spike times")
    potentiate = dt > 0.0
    exponent = np.where(potentiate, -dt / params.tau_plus, dt / params.tau_minus)
    window = np.fromiter(map(math.exp, exponent.ravel().tolist()), float, exponent.size).reshape(dt.shape)
    # w - a*e == w + (-a*e) exactly, and w + (-0.0) == w for every w (dt == 0).
    amplitude = np.where(potentiate, params.a_plus, np.where(dt < 0.0, -params.a_minus, -0.0))
    new = w + amplitude * window
    if params.w_max is not None:
        new = np.minimum(np.maximum(new, -params.w_max), params.w_max)
    if not include_self_pairs:
        new = np.where(rows == cols, w, new)
    weights[rows, cols] = new


def train_on_traversal(
    w: WeightMatrix,
    packets: Sequence[SpikePacket],
    params: StdpParams = StdpParams(),
    include_self_pairs: bool = True,
) -> WeightMatrix:
    """Train a copy of ``w`` on the consecutive packet pairs of one traversal.

    Packets must be temporally ordered and non-overlapping (the traversal
    invariant); 0 or 1 packets leave the matrix unchanged. Neuron ids outside
    [0, N) are rejected.
    """
    out = w.copy()
    for packet in packets:
        _check_packet_ids(packet, out.n)
    for prev_packet, cur_packet in zip(packets, packets[1:]):
        apply_packet_pair(out.w, prev_packet, cur_packet, params, include_self_pairs)
    return out
