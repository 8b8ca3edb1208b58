"""The array training phase against the per-traversal training loop, as bytes.

``_reference_train`` is the training phase as it ran traversal by
traversal: ``encode_traversal`` builds one ``SpikePacket`` per contact,
``train_on_traversal`` trains a validated copy of the matrix, and each
traversal starts from a fresh ``WeightMatrix``. Every trained weight, every
report rendering and every first error must match it; the error of a
weight that overflows names its object as well.
"""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from test_phase_reference import CASES, _config, _long_short_pair, _random_objects
from tempocode import experiments, stdp
from tempocode.baseline import dense_train
from tempocode.encoding import EncoderParams, _encode_block, encode, encode_traversal
from tempocode.experiments import _TRAIN_PHASE, _train, run_discrimination
from tempocode.inference import ObjectModel
from tempocode.rng import NoiseStream
from tempocode.stdp import train_on_traversal
from tempocode.types import WeightMatrix
from tempocode.world import SyntheticObject, WorldParams, discrimination_pair, generate_traversal


def _reference_train(cfg, seed, world, objs):
    n = objs[0].n_neurons
    train_traversals = []
    models = []
    for o, obj in enumerate(objs):
        class_traversals = [
            generate_traversal(obj, world, stream)
            for stream in NoiseStream(seed, _TRAIN_PHASE, o).children(cfg.experiment.n_train)
        ]
        weights = WeightMatrix.zeros(n)
        for trav in class_traversals:
            weights = train_on_traversal(weights, encode_traversal(trav, cfg.encoder), cfg.stdp)
        models.append(ObjectModel(obj.label, weights))
        train_traversals.extend(class_traversals)
    return models, dense_train(train_traversals)


def _renderings(report):
    return report.to_text(), report.to_csv(), report.to_json()


def _assert_matches_reference(cfg, seed, sigma, objs, monkeypatch):
    world = WorldParams(noise_sigma=sigma, inter_contact_interval=cfg.world.inter_contact_interval)
    models, centroids = _train(cfg, seed, world, objs)
    ref_models, ref_centroids = _reference_train(cfg, seed, world, objs)
    assert [m.weights.w.tobytes() for m in models] == [m.weights.w.tobytes() for m in ref_models]
    assert [(label, c.tobytes()) for label, c in centroids] == [(label, c.tobytes()) for label, c in ref_centroids]
    report = run_discrimination(cfg, seed=seed, sigma=sigma, objects=objs)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_train", _reference_train)
        reference = run_discrimination(cfg, seed=seed, sigma=sigma, objects=objs)
    assert _renderings(report) == _renderings(reference)


@pytest.mark.parametrize("slots", [1, 200, stdp._SLOTS])
@pytest.mark.parametrize("case", sorted(CASES))
def test_random_objects_match_the_per_traversal_loop(case, slots, monkeypatch):
    # Objects hold exact ties, mixed 0.0/-0.0, fully silent contacts and one-contact objects.
    # A block holds one traversal, a few, or (at 3 neurons) the whole phase.
    monkeypatch.setattr(stdp, "_SLOTS", slots)
    n_neurons, sigma, threshold, w_max = CASES[case]
    cfg = _config(threshold=threshold, w_max=w_max, n_train=3 if n_neurons > 3 else 6, n_test=10)
    for seed in (1, 2):
        objs = _random_objects(seed * 100 + n_neurons, n_neurons, [4, 1, 6] if seed == 1 else [3, 3, 5, 2])
        _assert_matches_reference(cfg, seed, sigma, objs, monkeypatch)


def test_silent_objects_and_equal_activations_match(monkeypatch):
    silent = SyntheticObject("silent", tuple(np.zeros(5) for _ in range(4)))
    level = SyntheticObject("level", tuple(np.full(5, v) for v in (0.5, -0.0, 0.5, 0.0)))
    for threshold in (0.1, 0.0, -0.2):
        _assert_matches_reference(_config(threshold=threshold, n_train=4, n_test=5), 3, 0.0, [silent, level], monkeypatch)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_long_short_pair_matches_the_per_traversal_loop(sigma, monkeypatch):
    _assert_matches_reference(_config(n_train=20, n_test=20), 42, sigma, _long_short_pair(), monkeypatch)


def test_default_pair_matches_the_per_traversal_loop(monkeypatch):
    _assert_matches_reference(_config(n_train=50, n_test=20), 7, 0.2, discrimination_pair(), monkeypatch)


@pytest.mark.parametrize("threshold", [0.1, 0.0, -0.2])
def test_the_block_encoder_gives_the_packets_of_encode(threshold):
    # Ranks from a stable argsort of the negated activations, ids from a stable
    # argsort of ~active, times as time + tau_base * (rank / n): encode's, bit for bit.
    rnd = random.Random(17)
    levels = [threshold, -0.0, 0.0, 0.05, 0.3, 0.3, 0.9, -0.5]
    params = EncoderParams(tau_base=0.007, sparsity_threshold=threshold)
    for n_neurons in (1, 3, 64):
        block = np.array([[[rnd.choice(levels) for _ in range(n_neurons)] for _ in range(6)] for _ in range(7)])
        times = [k * 0.031 for k in range(6)]
        ids, spike_times, counts = _encode_block(block, times, params)
        for t in range(7):
            for k, time in enumerate(times):
                ref_ids, ref_times = encode(block[t, k], params, arrival=time).id_time_arrays
                c = counts[t, k]
                assert ids[t, k, :c].tolist() == ref_ids.tolist()
                assert spike_times[t, k, :c].tobytes() == ref_times.tobytes()


def _first_error(run):
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


def _same_first_error(cfg, seed, sigma, objs):
    world = WorldParams(noise_sigma=sigma, inter_contact_interval=cfg.world.inter_contact_interval)
    expected = _first_error(lambda: _reference_train(cfg, seed, world, objs))
    assert _first_error(lambda: _train(cfg, seed, world, objs)) == expected
    return expected


def test_a_contact_gap_within_the_packet_span_raises_the_same_error():
    cfg = _config(interval=0.005)  # built with replace: no config-level check ran
    assert "must exceed the packet span" in _same_first_error(cfg, 3, 0.1, discrimination_pair())


@pytest.mark.parametrize(
    "first_contact, expected",
    [((0.9, 0.8), "spike offsets must be pairwise distinct"), ((0.9, 0.0), "must exceed the packet span")],
)
def test_a_traversal_raises_its_first_encoding_error(first_contact, expected):
    # The gap check fails at contact 1, after contact 0 is encoded; two active
    # neurons collide there, since tau_base * (1 / 2) == 0.0 at tau_base 5e-324.
    cfg = _config(tau_base=5e-324, interval=5e-324)
    objs = [SyntheticObject("x", (np.array(first_contact), np.array([0.9, 0.8])))]
    assert expected in _same_first_error(cfg, 1, 0.0, objs)


def test_colliding_subnormal_offsets_raise_the_same_error():
    # One driven neuron per contact: noise that lifts a second neuron over the
    # threshold makes tau_base * (1 / 2) == 0.0. At sigma 0.04 that first happens in
    # traversals 1 to 4 of a phase, after the ones before it trained, or never.
    objs = [
        SyntheticObject("x", (np.array([0.9, 0.0, 0.0]), np.array([0.0, 0.9, 0.0]))),
        SyntheticObject("y", (np.array([0.0, 0.9, 0.0]), np.array([0.9, 0.0, 0.0]))),
    ]
    cfg = _config(n_train=8, tau_base=5e-324)
    errors = [_same_first_error(cfg, seed, 0.04, objs) for seed in range(12)]
    assert None in errors and any(e and "pairwise distinct" in e for e in errors)


@pytest.mark.parametrize(
    "n_contacts, n_train",
    [
        # One s -> c pair per traversal: the fifth traversal overflows, and a sixth follows it.
        (2, 6),
        # The fifth and last traversal overflows: nothing reads the inf, and the phase still fails.
        (2, 5),
        # s, c, s, c, ...: the ninth pair overflows (s -> c's fifth), and four more follow it.
        (14, 1),
    ],
)
@pytest.mark.parametrize("slots", [1, 4, stdp._SLOTS])
def test_overflowing_weights_raise_the_same_error(n_contacts, n_train, slots, monkeypatch):
    # One slot per block trains one traversal per block; four slots hold two 2-contact traversals.
    # No RuntimeWarning either: a test fails on one.
    monkeypatch.setattr(stdp, "_SLOTS", slots)
    s, c = np.array([0.9, 0.0]), np.array([0.0, 0.9])
    obj = SyntheticObject("sc", tuple((s, c)[k % 2] for k in range(n_contacts)))
    base = _config(n_train=n_train, n_test=3)
    cfg = dataclasses.replace(base, stdp=dataclasses.replace(base.stdp, a_plus=1e308))
    world = WorldParams(noise_sigma=0.0, inter_contact_interval=cfg.world.inter_contact_interval)
    assert _first_error(lambda: _reference_train(cfg, 1, world, [obj])) == stdp._OVERFLOW
    assert _first_error(lambda: _train(cfg, 1, world, [obj])) == f"object 'sc': {stdp._OVERFLOW}"


def _sparse_objects(seed, n_objects, n_neurons=64, n_contacts=20, driven=24):
    rnd = random.Random(seed)
    shared = []
    for _ in range(n_contacts):
        vec = np.zeros(n_neurons)
        vec[rnd.sample(range(n_neurons), driven)] = [0.3 + 0.7 * rnd.random() for _ in range(driven)]
        shared.append(vec)
    return [SyntheticObject(f"p{o}", tuple(rnd.sample(shared, n_contacts))) for o in range(n_objects)]


@pytest.mark.parametrize("driven", [24, 64])
def test_the_training_working_set_stays_bounded(driven):
    # A dense (traversals, pairs, N, N) increment block of this phase alone takes 6.2 MB.
    cfg = _config(n_train=10)
    world = WorldParams(noise_sigma=0.1, inter_contact_interval=cfg.world.inter_contact_interval)
    objs = _sparse_objects(5, 1, driven=driven)
    _train(cfg, 1, world, objs)
    tracemalloc.start()
    try:
        _train(cfg, 1, world, objs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_a_spike_time_that_overflows_raises_the_same_error():
    # Contact 1 comes at 1.5e308, and its second spike 0.5e308 later, past the largest
    # double. That is no warning, as in Python's float addition, but the fold's error.
    cfg = _config(tau_base=1e308, interval=1.5e308)
    world = WorldParams(noise_sigma=0.0, inter_contact_interval=1.5e308)
    objs = [SyntheticObject("x", (np.array([0.9, 0.0]), np.array([0.9, 0.8])))]
    errors = []
    for train in (_reference_train, _train):
        with pytest.raises(ValueError) as info:
            train(cfg, 1, world, objs)
        errors.append(str(info.value))
    assert errors == ["stdp_update requires finite weight and spike times"] * 2
