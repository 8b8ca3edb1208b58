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

:func:`train_on_traversal` computes all of a traversal's increments in one
pass: the dt of every synapse of every consecutive packet pair, one
``math.exp`` map over them all, one amplitude product. It then folds them
into the weights pair by pair, in traversal order, with the optional
``w_max`` clip after each pair. So the working set is one traversal's
increments, and every synapse receives its increments in the order of the
scalar rule. :func:`apply_packet_pair` is the one-pair case of the same
code, and gives the same bits as calling :func:`stdp_update`, the scalar
reference, on every synapse of the pair.

The exactness rule: ``exp`` comes from :mod:`math`, one element at a time,
because numpy's vectorised ``exp`` may differ by an ulp; the only numpy
float operations used are correctly rounded ones (``+ - * /``,
``minimum``/``maximum``); and a packet pair touches each synapse at most
once, so the fold gives each synapse one rounded update per pair.
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
    """Reject neuron ids outside [0, n) in O(1).

    A packet keeps its ids in ascending order, so its first and last id
    bound all the others.
    """
    if packet:
        for nid in (next(iter(packet.spikes)), next(reversed(packet.spikes))):
            if nid < 0 or nid >= n:
                raise ValueError(f"packet neuron id {nid} out of range [0, {n})")


def _pair_block(prev_packet: SpikePacket, cur_packet: SpikePacket):
    """Neuron ids and global spike times of a packet pair as a prev x cur block.

    Returns ``(rows, cols, pre_times, post_times)``: rows and pre times as
    column vectors, cols and post times as rows. Both packets iterate in
    ascending neuron id, so the block's row-major order is the order of the
    scalar double loop over (pre, post). Each packet builds its arrays once
    (:attr:`SpikePacket.id_time_arrays`), however many pairs it is part of.
    """
    prev_ids, pre_times = prev_packet.id_time_arrays
    cols, post_times = cur_packet.id_time_arrays
    return prev_ids[:, None], cols, pre_times[:, None], post_times


def _fold_pairs(weights: np.ndarray, pairs: list[tuple[SpikePacket, SpikePacket]], params: StdpParams) -> None:
    """STDP-update ``weights`` in place over every (prev, cur) packet pair, in order.

    Every increment is computed first, in one pass; the fold then reads,
    updates, clips and writes one pair's prev x cur block at a time. A
    non-finite spike time on a synapse to update, or a non-finite weight
    when its pair reads it, raises ``ValueError`` as :func:`stdp_update`
    does, before that pair writes anything.
    """
    blocks = [_pair_block(prev_packet, cur_packet) for prev_packet, cur_packet in pairs]
    if not blocks:
        return
    dt = np.concatenate([(post_times - pre_times).ravel() for _, _, pre_times, post_times in blocks])
    if not np.isfinite(dt).all():
        # Finite spike times far apart can overflow dt; only non-finite inputs are errors,
        # and a pair with an empty packet updates nothing, so its times go unread.
        for _, _, pre_times, post_times in blocks:
            if pre_times.size and post_times.size:
                if not (np.isfinite(pre_times).all() and np.isfinite(post_times).all()):
                    raise ValueError("stdp_update requires finite weight and spike times")
    potentiate = dt > 0.0
    # -dt / tau_plus == dt / -tau_plus exactly: division rounds the magnitude alone.
    exponent = dt / np.where(potentiate, -params.tau_plus, params.tau_minus)
    window = np.fromiter(map(math.exp, exponent.tolist()), float, exponent.size)
    # w - a*e == w + (-a*e) exactly, and w + (-0.0) == w for every w (dt == 0).
    amplitude = np.where(potentiate, params.a_plus, np.where(dt < 0.0, -params.a_minus, -0.0))
    increments = amplitude * window
    start = 0
    for rows, cols, _, _ in blocks:
        w = weights[rows, cols]
        if not np.isfinite(w).all():
            raise ValueError("stdp_update requires finite weight and spike times")
        stop = start + w.size
        new = w + increments[start:stop].reshape(w.shape)
        if params.w_max is not None:
            new = np.minimum(np.maximum(new, -params.w_max), params.w_max)
        weights[rows, cols] = new
        start = stop


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
    _fold_pairs(weights, [(prev_packet, cur_packet)], params)


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
    _fold_pairs(out.w, list(zip(packets, packets[1:])), params)
    return out
