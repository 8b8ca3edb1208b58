"""The array test phase and per-traversal STDP against the per-trial loop, as bytes.

``_reference_run`` is the discrimination loop as it ran per trial: one
public ``Traversal`` per trial, one ``SpikePacket`` per contact, the scalar
``stdp_update`` on every synapse of every consecutive packet pair, the
leading pathway scored model by model with a strict ``>`` scan, and the dense
sum and per-centroid distances of each trial on their own. Every trained
weight, every per-object count and every report rendering must match it.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from tempocode.config import Config
from tempocode.encoding import EncoderParams, encode, encode_traversal
from tempocode.experiments import (
    _TEST_PHASE,
    _TRAIN_PHASE,
    DiscriminationReport,
    ObjectResult,
    _leading_neurons,
    _train,
    run_discrimination,
)
from tempocode.inference import left_sum
from tempocode.rng import NoiseStream
from tempocode.stdp import stdp_update
from tempocode.types import Traversal
from tempocode.world import SyntheticObject, WorldParams, discrimination_pair

F_SMOOTH, F_CURVED, F_EDGE = (0.9, 0.2, 0.1), (0.2, 0.8, 0.2), (0.1, 0.2, 0.9)


def _reference_traversal(obj, world, stream):
    values = np.array(obj.contacts)
    if world.noise_sigma > 0.0:
        values += world.noise_sigma * stream.normal_grid(*values.shape)
    contacts = tuple((row, k * world.inter_contact_interval) for k, row in enumerate(values))
    return Traversal(contacts, motor_direction=0.0, label=obj.label)


class _RaisedIn(Exception):
    def __init__(self, phase, error):
        super().__init__(phase, error)
        self.phase, self.error = phase, error


def _reference_run(cfg, seed, sigma, objs):
    """Trained weights and per-object (dense, temporal) counts, one trial at a time."""
    world = WorldParams(noise_sigma=sigma, inter_contact_interval=cfg.world.inter_contact_interval)
    n = objs[0].n_neurons
    weights, centroids = [], []
    try:
        for o, obj in enumerate(objs):
            w = np.zeros((n, n))
            sums = []
            for stream in NoiseStream(seed, _TRAIN_PHASE, o).children(cfg.experiment.n_train):
                trav = _reference_traversal(obj, world, stream)
                packets = encode_traversal(trav, cfg.encoder)
                for prev, cur in zip(packets, packets[1:]):
                    for i, t_pre in prev.items():
                        for j, t_post in cur.items():
                            w[i, j] = stdp_update(w[i, j], prev.arrival + t_pre, cur.arrival + t_post, cfg.stdp)
                sums.append(np.sum(np.stack([f for f, _ in trav.contacts]), axis=0))
            weights.append(w)
            centroids.append(np.mean(np.stack(sums), axis=0))
    except ValueError as exc:
        raise _RaisedIn("train", str(exc)) from exc
    counts = []
    try:
        for o, obj in enumerate(objs):
            dense = temporal = 0
            for stream in NoiseStream(seed, _TEST_PHASE, o).children(cfg.experiment.n_test):
                trav = _reference_traversal(obj, world, stream)
                packets = encode_traversal(trav, cfg.encoder)
                leading = [packet.first_neuron() for packet in packets]
                best, best_score = 0, -math.inf
                for m, w in enumerate(weights):
                    pairs = zip(leading, leading[1:])
                    score = left_sum([float(w[i, j]) for i, j in pairs if i is not None and j is not None])
                    if score > best_score:
                        best, best_score = m, score
                total = np.sum(np.stack([f for f, _ in trav.contacts]), axis=0)
                distances = [float(np.sum((total - c) ** 2)) for c in centroids]
                temporal += best == o
                dense += int(np.argmin(distances)) == o
            counts.append((dense, temporal))
    except ValueError as exc:
        raise _RaisedIn("test", str(exc)) from exc
    return weights, counts


def _config(threshold=0.1, w_max=None, n_train=3, n_test=40, tau_base=0.010, interval=0.020):
    base = Config()
    return dataclasses.replace(
        base,
        encoder=dataclasses.replace(base.encoder, sparsity_threshold=threshold, tau_base=tau_base),
        stdp=dataclasses.replace(base.stdp, w_max=w_max),
        world=dataclasses.replace(base.world, inter_contact_interval=interval),
        experiment=dataclasses.replace(base.experiment, n_train=n_train, n_test=n_test),
    )


def _random_objects(seed, n_neurons, contact_counts):
    """Objects with exact ties, mixed 0.0/-0.0 and fully silent contacts.

    Repeated levels tie exactly at sigma 0; a silent contact stays at or
    below every threshold used here (0.1, 0.0 and -0.2).
    """
    rnd = random.Random(seed)
    levels = [0.0, -0.0, -0.0, 0.05, 0.3, 0.3, 0.6, 0.9, 0.9]
    objects = []
    for o, k in enumerate(contact_counts):
        contacts = []
        for _ in range(k):
            pool = [-0.5, -0.2] if rnd.random() < 0.2 else levels
            contacts.append(np.array([rnd.choice(pool) for _ in range(n_neurons)]))
        objects.append(SyntheticObject(f"o{o}", tuple(contacts)))
    return objects


def _long_short_pair():
    s, c, e = (np.array(v) for v in (F_SMOOTH, F_CURVED, F_EDGE))
    return [SyntheticObject("long", (s, c, e, s)), SyntheticObject("short", (e, c, s))]


CASES = {
    "3n-sigma0-t0.1": (3, 0.0, 0.1, None),
    "3n-sigma0-t-0.2-wmax": (3, 0.0, -0.2, 0.02),
    "3n-sigma0.1-t0.0": (3, 0.1, 0.0, None),
    "3n-sigma0.3-t0.1-wmax": (3, 0.3, 0.1, 0.02),
    "64n-sigma0-t0.0": (64, 0.0, 0.0, None),
    "64n-sigma0.1-t0.1-wmax": (64, 0.1, 0.1, 0.02),
    "64n-sigma0.05-t-0.2": (64, 0.05, -0.2, None),
}


def _assert_matches_reference(cfg, seed, sigma, objs):
    report = run_discrimination(cfg, seed=seed, sigma=sigma, objects=objs)
    ref_weights, ref_counts = _reference_run(cfg, seed, sigma, objs)
    world = WorldParams(noise_sigma=sigma, inter_contact_interval=cfg.world.inter_contact_interval)
    models, _ = _train(cfg, seed, world, objs)
    assert [m.weights.w.tobytes() for m in models] == [w.tobytes() for w in ref_weights]
    assert [(r.dense_correct, r.temporal_correct) for r in report.per_object] == ref_counts
    reference = DiscriminationReport(
        sigma=sigma,
        n_train=cfg.experiment.n_train,
        n_test=cfg.experiment.n_test,
        seed=seed,
        per_object=tuple(
            ObjectResult(obj.label, cfg.experiment.n_test, dense, temporal)
            for obj, (dense, temporal) in zip(objs, ref_counts)
        ),
        config=report.config,
    )
    assert (report.to_text(), report.to_csv(), report.to_json()) == (
        reference.to_text(),
        reference.to_csv(),
        reference.to_json(),
    )
    return ref_counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_random_objects_match_the_per_trial_loop(case):
    n_neurons, sigma, threshold, w_max = CASES[case]
    cfg = _config(threshold=threshold, w_max=w_max, n_train=2 if n_neurons > 3 else 4)
    for seed in (1, 2):
        # One-contact objects never train; different lengths share one run.
        objs = _random_objects(seed * 100 + n_neurons, n_neurons, [4, 1, 6] if seed == 1 else [3, 3, 5, 2])
        _assert_matches_reference(cfg, seed, sigma, objs)


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
def test_long_short_pair_matches_the_per_trial_loop(sigma):
    _assert_matches_reference(_config(n_train=20, n_test=60), 42, sigma, _long_short_pair())


@pytest.mark.parametrize("sigma", [0.0, 0.35])
def test_default_pair_matches_the_per_trial_loop(sigma):
    # At sigma 0 the two centroids are equal, and every dense tie goes to the first.
    _assert_matches_reference(_config(n_train=10, n_test=100), 7, sigma, discrimination_pair())


def test_dense_sums_fold_contacts_in_traversal_order():
    # 1 + 1e16 - 1e16 is 0.0 folded left to right, 1.0 in reverse: only the
    # traversal's own order tells these mirror objects apart.
    x = SyntheticObject("x", (np.array([1.0, 0.5]), np.array([1e16, 0.5]), np.array([-1e16, 0.5])))
    y = SyntheticObject("y", tuple(reversed(x.contacts)))
    counts = _assert_matches_reference(_config(n_train=2, n_test=5), 1, 0.0, [x, y])
    assert [dense for dense, _ in counts] == [5, 5]
    # One neuron over many contacts: numpy sums a (contacts, 1) column pairwise.
    rnd = random.Random(5)
    long = [np.array([rnd.choice([1e16, -1e16, 1.0, 3.0, -7.5])]) for _ in range(40)]
    objs = [SyntheticObject(f"c{i}", tuple(long[i:] + long[:i])) for i in range(0, 40, 8)]
    _assert_matches_reference(_config(n_train=2, n_test=5), 2, 0.0, objs)
    _assert_matches_reference(_config(n_train=3, n_test=20), 2, 1.0, objs)


@pytest.mark.parametrize("threshold", [0.1, 0.0, -0.2])
def test_leading_neurons_are_the_first_spikes_of_encode(threshold):
    # Levels include the threshold itself and both zeros, so ties and boundary values are common.
    rnd = random.Random(11)
    levels = [threshold, -0.0, 0.0, 0.05, 0.3, 0.9, -0.5]
    for n_neurons in (1, 3, 64):
        block = np.array([[rnd.choice(levels) for _ in range(n_neurons)] for _ in range(300)])
        leading, active = _leading_neurons(block, threshold)
        params = EncoderParams(sparsity_threshold=threshold)
        expected = [encode(row, params).first_neuron() for row in block]
        assert [int(i) if a else None for i, a in zip(leading, active)] == expected


def _error_text(run):
    with pytest.raises(ValueError) as info:
        run()
    return str(info.value)


def test_contact_gap_within_the_packet_span_raises_the_same_error():
    cfg = _config(interval=0.005)  # built with replace: no config-level check ran
    objs = discrimination_pair()
    with pytest.raises(_RaisedIn) as ref:
        _reference_run(cfg, 3, 0.1, objs)
    assert ref.value.phase == "train" and "must exceed the packet span" in ref.value.error
    assert _error_text(lambda: run_discrimination(cfg, seed=3, sigma=0.1, objects=objs)) == ref.value.error


def test_colliding_subnormal_offsets_raise_the_same_error_in_either_phase():
    # One driven neuron per contact: offsets of one active neuron never collide, but
    # noise that lifts a second neuron over the threshold makes tau_base * (1 / 2) == 0.0.
    objs = [
        SyntheticObject("x", (np.array([0.9, 0.0, 0.0]), np.array([0.0, 0.9, 0.0]))),
        SyntheticObject("y", (np.array([0.0, 0.9, 0.0]), np.array([0.9, 0.0, 0.0]))),
    ]
    cfg = _config(n_train=1, n_test=60, tau_base=5e-324)
    phases = set()
    for seed in range(12):
        try:
            _reference_run(cfg, seed, 0.05, objs)
        except _RaisedIn as ref:
            phases.add(ref.phase)
            assert "pairwise distinct" in ref.error
            assert _error_text(lambda: run_discrimination(cfg, seed=seed, sigma=0.05, objects=objs)) == ref.error
        else:
            _assert_matches_reference(cfg, seed, 0.05, objs)
    assert phases == {"train", "test"}
