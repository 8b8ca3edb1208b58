"""Every array path of the pipeline against the scalar oracle (``tests/oracle.py``), compared as bytes.

Named cases keep their parametrized ids. Around them Hypothesis draws small
worlds: 1-8 neurons and 1-6 contacts, sigma from 0 to 10, thresholds 0.1, 0
and -0.2, ``w_max`` on and off, exact ties, 0.0 and -0.0, silent contacts,
-0.0 weights and packets that overlap. Where the oracle rejects an input,
the package must raise, first, the error of the same check, naming the
same values.
"""

import dataclasses
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from test_stdp import _packet, _random_packet
from tempocode import rng, stdp
from tempocode.baseline import _nearest, _sums, centroid_distances, dense_train
from tempocode.config import Config
from tempocode.encoding import EncoderParams, _check_gaps, _encode_block, encode
from tempocode.experiments import (
    DiscriminationReport,
    ObjectResult,
    _leading_neurons,
    _pathway_scores,
    _train,
    classify_temporal,
    run_discrimination,
)
from tempocode.inference import LoopState, ObjectModel, alignment_score, exploration_step
from tempocode.rng import NoiseStream
from tempocode.stdp import apply_packet_pair, train_on_traversal
from tempocode.types import SpikePacket, StdpParams, WeightMatrix
from tempocode.world import (
    F_CURVED,
    F_EDGE,
    F_SMOOTH,
    SyntheticObject,
    WorldParams,
    discrimination_pair,
    generate_traversal,
)

#: Activation levels with exact ties, both zeros, and values at or below every threshold used.
LEVELS = [0.0, -0.0, -0.0, 0.05, 0.3, 0.3, 0.6, 0.9, 0.9, -0.2, -0.5]


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


def _models(rnd, n, count):
    # magnitudes far apart make any other summation order show in the bits
    choices = [-0.0, 1e6, -1e6, 1.0]
    return [
        ObjectModel(f"m{k}", WeightMatrix(np.array(
            [[rnd.choice(choices + [rnd.uniform(-1, 1)]) for _ in range(n)] for _ in range(n)]
        )))
        for k in range(count)
    ]


def _spec(objs):
    """Objects as the oracle's ``(label, canonical rows)``."""
    return [(obj.label, obj.features.tolist()) for obj in objs]


#: The package's error for each check the oracle names, to be formatted with the values it names.
MESSAGES = {
    "one contact": "object {!r} has 1 contact: discrimination needs at least two per object, "
    "since one contact gives no packet pair to train or score",
    "gap": "contact gap {} s must exceed the packet span tau_base={} s",
    "spike time": stdp._NON_FINITE,
    "overflow": "object {!r}: " + stdp._OVERFLOW,
    "activations": "feature vector contains non-finite activations: {!r}",
    "contact time": "contact time must be finite, got {}",
}


def _assert_raises_as(rejected, run):
    """``run`` raises the package's whole error for the check, and the contact or object, the oracle rejected."""
    detail = [np.array(d) if rejected.kind == "activations" else d for d in rejected.detail]
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == MESSAGES[rejected.kind].format(*detail)


def _config(threshold=0.1, w_max=None, n_train=3, n_test=40, tau_base=0.010, interval=0.020, a_plus=0.01):
    base = Config()
    return dataclasses.replace(
        base,
        encoder=dataclasses.replace(base.encoder, sparsity_threshold=threshold, tau_base=tau_base),
        stdp=dataclasses.replace(base.stdp, w_max=w_max, a_plus=a_plus),
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


@st.composite
def _rows(draw, n, k):
    """k contact rows of n activations: levels with ties, any float in [-1, 1], or a silent row."""
    row = st.lists(st.sampled_from(LEVELS) | st.floats(-1.0, 1.0), min_size=n, max_size=n) | st.just([-0.5] * n)
    return draw(st.lists(row, min_size=k, max_size=k))


@st.composite
def _worlds(draw):
    """(config, seed, sigma, objects): 2-3 objects of 1-6 contacts over 1-8 neurons."""
    n = draw(st.integers(1, 8))
    objs = [SyntheticObject(f"o{o}", tuple(map(np.array, draw(_rows(n, draw(st.integers(1, 6)))))))
            for o in range(draw(st.integers(2, 3)))]
    cfg = _config(
        threshold=draw(st.sampled_from([0.1, 0.0, -0.2])),
        w_max=draw(st.sampled_from([None, 0.02])),
        n_train=draw(st.integers(1, 3)),
        n_test=draw(st.integers(1, 5)),
    )
    return cfg, draw(st.integers(0, 2**64 - 1)), draw(st.just(0.0) | st.floats(0.0, 10.0)), objs


# --- noise ---


@pytest.mark.parametrize(
    "seed, prefix",
    [(42, (0, 0, 0)), (42, (1, 3, 199)), (7, (0, 2, 5)), (0, ()), (2**64 - 1, (2, 1)), (2**70 + 9, (3,)),
     (2**64 + 5, (1,)), (42, (1, 2, 3))],
)
def test_grid_matches_the_oracle(seed, prefix):
    stream = oracle.derive_seed(seed, *prefix)
    expected = [[oracle.normal(stream, k, c) for c in range(64)] for k in range(20)]
    assert NoiseStream(seed, *prefix).normal_grid(20, 64).tobytes() == _bytes(expected)


@pytest.mark.parametrize(
    "members, rows, cols",
    [(3, 3, 455), (2, 32, 64), (17, 1, 241), (1, 1, 3 * rng._CHUNK + 1)],
    ids=["below", "at", "above", "several"],
)
def test_family_normals_across_box_muller_chunks_match_the_oracle(members, rows, cols):
    # A family's normals are transformed in chunks: one fewer, exactly, one more, several.
    assert members * rows * cols in (rng._CHUNK - 1, rng._CHUNK, rng._CHUNK + 1, 3 * rng._CHUNK + 1)
    got = np.stack([child.normal_grid(rows, cols) for child in NoiseStream(42, 1, 2).children(members)])
    streams = [oracle.derive_seed(42, 1, 2, t) for t in range(members)]
    expected = [[[oracle.normal(s, k, c) for c in range(cols)] for k in range(rows)] for s in streams]
    assert got.tobytes() == _bytes(expected)


def _assert_streams_match(seed, prefix, members, rows, cols):
    """A stream's ``normal_vector(cols)``, and its children's seeds and ``normal_grid(rows, cols)``."""
    parent = NoiseStream(seed, *prefix)
    stream = oracle.derive_seed(seed, *prefix)
    assert parent.normal_vector(cols).tobytes() == _bytes([oracle.normal(stream, t) for t in range(cols)])
    children = parent.children(members)
    assert [child._seed for child in children] == [oracle.derive_seed(seed, *prefix, t) for t in range(members)]
    for child in children:
        expected = [[oracle.normal(child._seed, k, c) for c in range(cols)] for k in range(rows)]
        assert child.normal_grid(rows, cols).tobytes() == _bytes(expected)


@pytest.mark.parametrize("members, rows, cols", [(7, 3, 300), (1, 20, 64), (200, 1, 5), (7, 5, 1)])
@pytest.mark.parametrize("prefix", [(), (0, 2), (2, 0), (1, 3)])
@pytest.mark.parametrize("seed", [42, 7, 2**64 - 1])
def test_named_streams_match_the_oracle(seed, prefix, members, rows, cols):
    _assert_streams_match(seed, prefix, members, rows, cols)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    prefix=st.lists(st.integers(0, 2**64 - 2), max_size=3),
    members=st.integers(1, 4),
    rows=st.integers(0, 6),
    cols=st.integers(0, 8),
)
def test_streams_match_the_oracle(seed, prefix, members, rows, cols):
    _assert_streams_match(seed, prefix, members, rows, cols)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), sigma=st.just(0.0) | st.floats(0.0, 10.0), seed=st.integers(0, 2**64 - 1))
def test_generate_traversal_matches_the_oracle(data, sigma, seed):
    canonical = data.draw(_rows(data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))))
    interval = data.draw(st.sampled_from([0.020, 0.015, 5e-324]))
    obj = SyntheticObject("x", tuple(canonical))
    trav = generate_traversal(obj, WorldParams(sigma, interval), NoiseStream(seed, 3))
    rows, times = oracle.traversal(canonical, sigma, interval, oracle.derive_seed(seed, 3))
    assert trav.features.tobytes() == _bytes(rows)
    assert [t for _, t in trav.contacts] == times


# --- encoder ---


def _assert_block_matches(block, times, params):
    """``encode``, ``_encode_block`` and ``_check_gaps`` against the oracle's encoder."""
    ids, spike_times, counts = _encode_block(block, times, params)
    try:
        oracle.encode_traversal(block[0].tolist(), times, params)
    except oracle.Rejected as rejected:
        _assert_raises_as(rejected, lambda: _check_gaps(times, params))
    else:
        _check_gaps(times, params)
    for t, rows in enumerate(block.tolist()):
        for k, (row, time) in enumerate(zip(rows, times)):
            packet = oracle.encode(row, time, params)
            got = _packet(encode(row, params, arrival=time))
            assert [nid for nid, _ in got] == [nid for nid, _ in packet]
            assert _bytes([s for _, s in got]) == _bytes([s for _, s in packet])
            c = counts[t, k]
            assert c == len(packet)
            assert ids[t, k, :c].tolist() == [nid for nid, _ in packet]
            assert spike_times[t, k, :c].tobytes() == _bytes([s for _, s in packet])


@pytest.mark.parametrize("threshold", [0.1, 0.0, -0.2])
def test_the_block_encoder_gives_the_oracles_packets(threshold):
    # Ids in firing order, times as time + tau_base * (rank / n), bit for bit.
    rnd = random.Random(17)
    levels = [threshold, -0.0, 0.0, 0.05, 0.3, 0.3, 0.9, -0.5]
    params = EncoderParams(tau_base=0.007, sparsity_threshold=threshold)
    for n_neurons in (1, 3, 64):
        block = np.array([[[rnd.choice(levels) for _ in range(n_neurons)] for _ in range(6)] for _ in range(7)])
        _assert_block_matches(block, [k * 0.031 for k in range(6)], params)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    threshold=st.sampled_from([0.1, 0.0, -0.2]),
    tau_base=st.sampled_from([0.010, sys.float_info.min]),
    interval=st.sampled_from([0.020, 0.005, 5e-324]),
)
def test_encoders_and_their_checks_match_the_oracle(data, threshold, tau_base, interval):
    # The smallest normal tau_base still gives every rank its own offset; a short interval fails the gap.
    n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
    block = np.array([data.draw(_rows(n, k)) for _ in range(data.draw(st.integers(1, 4)))])
    _assert_block_matches(block, [j * interval for j in range(k)], EncoderParams(tau_base, threshold))


@pytest.mark.parametrize("threshold", [0.1, 0.0, -0.2])
def test_leading_neurons_are_the_oracles_first_spikes(threshold):
    # Levels include the threshold itself and both zeros, so ties and boundary values are common.
    rnd = random.Random(11)
    levels = [threshold, -0.0, 0.0, 0.05, 0.3, 0.9, -0.5]
    params = EncoderParams(sparsity_threshold=threshold)
    for n_neurons in (1, 3, 64):
        block = np.array([[rnd.choice(levels) for _ in range(n_neurons)] for _ in range(300)])
        leading, active = _leading_neurons(block, threshold)
        packets = [oracle.encode(row, 0.0, params) for row in block.tolist()]
        expected = [packet[0][0] if packet else None for packet in packets]
        assert [int(i) if a else None for i, a in zip(leading, active)] == expected


# --- STDP and the training phase ---


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    n_packets=st.integers(0, 6),
    spacing=st.sampled_from([0.005, 0.05]),
    params=st.builds(
        StdpParams,
        a_plus=st.sampled_from([0.01, 0.3]),
        a_minus=st.sampled_from([0.01, 0.07]),
        tau_plus=st.sampled_from([0.020, 0.007]),
        tau_minus=st.sampled_from([0.020, 0.013]),
        w_max=st.sampled_from([None, 0.02, 0.2]),
    ),
)
def test_train_on_traversal_and_apply_packet_pair_match_the_oracle(seed, n, n_packets, spacing, params):
    # Packets 5 ms apart with offsets up to 39 ms overlap: dt == 0 and dt < 0 occur; 50 ms apart they do not.
    rnd = random.Random(seed)
    packets = [_random_packet(rnd, n, rnd.randint(0, n), spacing * k) for k in range(n_packets)]
    start = _models(rnd, n, 1)[0].weights.w
    expected = _bytes(oracle.train(start.tolist(), [[_packet(p) for p in packets]], params))
    assert train_on_traversal(WeightMatrix(start), packets, params).w.tobytes() == expected
    if n_packets == 2:
        apply_packet_pair(start, *packets, params)
        assert start.tobytes() == expected


def _assert_train_matches(cfg, seed, sigma, objs):
    """``_train``'s weights and centroids against the oracle's, or the error of the same check; returns it."""
    interval = cfg.world.inter_contact_interval
    try:
        models, centroids = oracle.training(
            _spec(objs), seed, sigma, cfg.experiment.n_train, interval, cfg.encoder, cfg.stdp
        )
    except oracle.Rejected as rejected:
        _assert_raises_as(rejected, lambda: _train(cfg, seed, WorldParams(sigma, interval), objs))
        return rejected
    got_weights, got_centroids = _train(cfg, seed, WorldParams(sigma, interval), objs)
    assert got_weights.tobytes() == _bytes(models)
    expected = [(obj.label, _bytes(c)) for obj, c in zip(objs, centroids)]
    assert [(label, c.tobytes()) for label, c in got_centroids] == expected
    return None


def _assert_run_matches(cfg, seed, sigma, objs):
    """``run_discrimination``'s counts and three renderings against the oracle, or its first error.

    Returns the oracle's ``(dense, temporal)`` counts, or what it rejected.
    """
    n_train, n_test = cfg.experiment.n_train, cfg.experiment.n_test
    try:
        _, _, counts = oracle.discrimination(
            _spec(objs), seed, sigma, n_train, n_test, cfg.world.inter_contact_interval, cfg.encoder, cfg.stdp
        )
    except oracle.Rejected as rejected:
        _assert_raises_as(rejected, lambda: run_discrimination(cfg, seed=seed, sigma=sigma, objects=objs))
        return rejected
    report = run_discrimination(cfg, seed=seed, sigma=sigma, objects=objs)
    results = tuple(ObjectResult(obj.label, n_test, dense, temporal) for obj, (dense, temporal) in zip(objs, counts))
    reference = DiscriminationReport(sigma, n_train, n_test, seed, results, report.config)
    assert report.per_object == results
    assert (report.to_text(), report.to_csv(), report.to_json()) == (
        reference.to_text(),
        reference.to_csv(),
        reference.to_json(),
    )
    return counts


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("slots", [1, 200, stdp._SLOTS])
@pytest.mark.parametrize("case", sorted(CASES))
def test_random_objects_match_the_oracle(case, slots, seed, monkeypatch):
    # Objects hold exact ties, mixed 0.0/-0.0 and fully silent contacts; at seed 2 objects of
    # different lengths share one run. At seed 1 one object has one contact: it trains as the
    # oracle's, and the run rejects it before anything trains.
    # A block holds one traversal, a few, or (at 3 neurons) the whole phase.
    monkeypatch.setattr(stdp, "_SLOTS", slots)
    n_neurons, sigma, threshold, w_max = CASES[case]
    objs = _random_objects(seed * 100 + n_neurons, n_neurons, [4, 1, 6] if seed == 1 else [3, 3, 5, 2])
    train_cfg = _config(threshold=threshold, w_max=w_max, n_train=3 if n_neurons > 3 else 6, n_test=10)
    assert _assert_train_matches(train_cfg, seed, sigma, objs) is None
    run_cfg = _config(threshold=threshold, w_max=w_max, n_train=2 if n_neurons > 3 else 4)
    result = _assert_run_matches(run_cfg, seed, sigma, objs)
    assert seed == 2 or (result.kind, *result.detail) == ("one contact", "o1")


def test_silent_objects_and_equal_activations_match_the_oracle():
    silent = SyntheticObject("silent", tuple(np.zeros(5) for _ in range(4)))
    level = SyntheticObject("level", tuple(np.full(5, v) for v in (0.5, -0.0, 0.5, 0.0)))
    for threshold in (0.1, 0.0, -0.2):
        cfg = _config(threshold=threshold, n_train=4, n_test=5)
        assert _assert_train_matches(cfg, 3, 0.0, [silent, level]) is None
        _assert_run_matches(cfg, 3, 0.0, [silent, level])


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
def test_long_short_pair_matches_the_oracle(sigma):
    assert _assert_train_matches(_config(n_train=20, n_test=60), 42, sigma, _long_short_pair()) is None
    _assert_run_matches(_config(n_train=20, n_test=60), 42, sigma, _long_short_pair())


@pytest.mark.parametrize("sigma", [0.0, 0.2, 0.35])
def test_default_pair_matches_the_oracle(sigma):
    # At sigma 0 the two centroids are equal, and every dense tie goes to the first.
    assert _assert_train_matches(_config(n_train=50), 7, sigma, discrimination_pair()) is None
    _assert_run_matches(_config(n_train=10, n_test=100), 7, sigma, discrimination_pair())


@settings(max_examples=40, deadline=None)
@given(world=_worlds(), slots=st.sampled_from([1, 200, stdp._SLOTS]))
def test_small_worlds_match_the_oracle(world, slots):
    with mock.patch.object(stdp, "_SLOTS", slots):
        _assert_train_matches(*world)
        _assert_run_matches(*world)


def test_dense_sums_fold_contacts_in_traversal_order():
    # 1 + 1e16 - 1e16 is 0.0 folded left to right, 1.0 in reverse: only the
    # traversal's own order tells these mirror objects apart.
    x = SyntheticObject("x", (np.array([1.0, 0.5]), np.array([1e16, 0.5]), np.array([-1e16, 0.5])))
    y = SyntheticObject("y", tuple(reversed(x.contacts)))
    counts = _assert_run_matches(_config(n_train=2, n_test=5), 1, 0.0, [x, y])
    assert [dense for dense, _ in counts] == [5, 5]
    # One neuron over many contacts: numpy sums a (contacts, 1) column pairwise.
    rnd = random.Random(5)
    long = [np.array([rnd.choice([1e16, -1e16, 1.0, 3.0, -7.5])]) for _ in range(40)]
    objs = [SyntheticObject(f"c{i}", tuple(long[i:] + long[:i])) for i in range(0, 40, 8)]
    _assert_run_matches(_config(n_train=2, n_test=5), 2, 0.0, objs)
    _assert_run_matches(_config(n_train=3, n_test=20), 2, 1.0, objs)


def test_a_contact_gap_within_the_packet_span_raises_the_oracles_error():
    # A gap of exactly the span (0.010) is rejected too. Built with replace: no config-level check ran.
    for cfg in (_config(interval=0.005), _config(interval=0.010)):
        assert _assert_train_matches(cfg, 3, 0.1, discrimination_pair()).kind == "gap"
        assert _assert_run_matches(cfg, 3, 0.1, discrimination_pair()).kind == "gap"


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
def test_overflowing_weights_raise_the_oracles_error(n_contacts, n_train, slots, monkeypatch):
    # One slot per block trains one traversal per block; four slots hold two 2-contact traversals.
    # No RuntimeWarning either: a test fails on one.
    monkeypatch.setattr(stdp, "_SLOTS", slots)
    s, c = np.array([0.9, 0.0]), np.array([0.0, 0.9])
    obj = SyntheticObject("sc", tuple((s, c)[k % 2] for k in range(n_contacts)))
    rejected = _assert_train_matches(_config(n_train=n_train, n_test=3, a_plus=1e308), 1, 0.0, [obj])
    assert (rejected.kind, *rejected.detail) == ("overflow", "sc")


@pytest.mark.parametrize("slots", [1, 4, stdp._SLOTS])
def test_sums_that_overflow_clip_to_w_max_as_the_oracles_do(slots, monkeypatch):
    # The fifth s -> c pair passes the largest double; under w_max it clips with no warning (a test fails on one).
    monkeypatch.setattr(stdp, "_SLOTS", slots)
    cfg = _config(n_train=6, a_plus=1e308, w_max=1.6e308)
    obj = SyntheticObject("sc", (np.array([0.9, 0.0]), np.array([0.0, 0.9])))
    assert _assert_train_matches(cfg, 1, 0.0, [obj]) is None
    assert _train(cfg, 1, WorldParams(0.0, 0.020), [obj])[0][0, 0, 1] == 1.6e308


def test_a_spike_time_that_overflows_raises_the_oracles_error():
    # Contact 1 comes at 1.5e308, and its second spike 0.5e308 later, past the largest
    # double. That is no warning, as in Python's float addition, but the fold's error.
    cfg = _config(tau_base=1e308, interval=1.5e308)
    objs = [SyntheticObject("x", (np.array([0.9, 0.0]), np.array([0.9, 0.8])))]
    assert _assert_train_matches(cfg, 1, 0.0, objs).kind == "spike time"
    # A third contact would come at 3e308, which is inf: the sweep itself is rejected.
    objs = [SyntheticObject("x", objs[0].contacts + (np.array([0.9, 0.0]),))]
    assert _assert_train_matches(cfg, 1, 0.0, objs).kind == "contact time"
    # Noise at sigma 1e308 overflows an activation of contact 0 or 1 first: so is a row.
    assert _assert_train_matches(cfg, 1, 1e308, objs).kind == "activations"


# --- scores ---


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), threshold=st.sampled_from([0.1, 0.0, -0.2]))
def test_leading_pair_scores_match_the_oracle(data, seed, threshold):
    n = data.draw(st.integers(1, 8))
    rows = data.draw(_rows(n, data.draw(st.integers(1, 6))))
    params = EncoderParams(sparsity_threshold=threshold)
    packets = [encode(row, params, arrival=0.020 * j) for j, row in enumerate(rows)]
    models = _models(random.Random(seed), n, data.draw(st.integers(1, 4)))
    expected = [oracle.leading_score(m.weights.w.tolist(), [_packet(p) for p in packets]) for m in models]
    leading, active = _leading_neurons(np.array(rows), threshold)
    weights = np.stack([m.weights.w for m in models])
    assert _pathway_scores(leading[None], active[None], weights).tobytes() == _bytes([expected])
    assert classify_temporal(packets, models) == oracle.best(expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), n_models=st.integers(1, 4))
def test_alignment_scores_match_the_oracle(seed, n, n_models):
    # Arrivals 0, 4 and 20 ms after the first packet: overlapping packets hold non-causal pairs.
    rnd = random.Random(seed)
    prev = _random_packet(rnd, n, rnd.randint(0, n), 0.0)
    cur = _random_packet(rnd, n, rnd.randint(0, n), rnd.choice([0.0, 0.004, 0.020]))
    models = _models(rnd, n, n_models)
    expected = _bytes([oracle.causal_score(m.weights.w.tolist(), _packet(prev), _packet(cur)) for m in models])
    assert _bytes([alignment_score(prev, cur, m) for m in models]) == expected


def _assert_dense_matches(rnd, n):
    """The dense route on 1-3 classes of 1-6 trials, each class of its own 1-6 contacts, against the oracle.

    Each class's sums, its centroid and every trial's distances and pick are compared as bytes.
    """
    choices = [-0.0, 0.0, 1e16, -1e16, 1.0, 1e-300]
    classes = []
    for label in range(rnd.randint(1, 3)):
        contacts = rnd.randint(1, 6)
        sweeps = [[[rnd.choice(choices + [rnd.gauss(0.0, 1.0)]) for _ in range(n)] for _ in range(contacts)]
                  for _ in range(rnd.randint(1, 6))]
        classes.append((str(label), sweeps))
    blocks = [(label, np.array(sweeps)) for label, sweeps in classes]
    got = dense_train(blocks)
    sums = [[oracle.dense_sum(rows) for rows in sweeps] for _, sweeps in classes]
    centroids = [oracle.centroid(class_sums) for class_sums in sums]
    assert [_sums(block).tobytes() for _, block in blocks] == [_bytes(class_sums) for class_sums in sums]
    assert [(label, c.tobytes()) for label, c in got] == [(label, _bytes(c)) for (label, _), c in zip(blocks, centroids)]
    totals = [total for class_sums in sums for total in class_sums]
    distances = centroid_distances(np.array(totals), [c for _, c in got])
    expected = [[oracle.squared_distance(t, c) for c in centroids] for t in totals]
    assert distances.tobytes() == _bytes(expected)
    picks = np.concatenate([_nearest(block, got) for _, block in blocks])
    assert picks.tolist() == [row.index(min(row)) for row in expected]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_dense_train_and_centroid_distances_match_the_oracle(seed, n):
    _assert_dense_matches(random.Random(seed), n)


@pytest.mark.parametrize("n", [1, 3, 64, 100])
@pytest.mark.parametrize("seed", [1, 2])
def test_named_dense_worlds_match_the_oracle(seed, n):
    # Many neurons, where numpy sums in blocks: 20 worlds each.
    rnd = random.Random(1000 * seed + n)
    for _ in range(20):
        _assert_dense_matches(rnd, n)


# --- the inference loop ---


def _readings(rnd, n, steps):
    """Readings with some silent ones; about a third of the neurons fire in the rest.

    Some activations sit exactly at the threshold, which does not fire.
    """
    threshold = EncoderParams().sparsity_threshold
    readings = []
    for _ in range(steps):
        if rnd.random() < 0.15:
            readings.append([0.0] * n)
        else:
            readings.append([rnd.choice([0.0, threshold, 0.5, rnd.uniform(0.0, 1.0)]) for _ in range(n)])
    return readings


def _contact_times(rnd, steps, overlap):
    """None (the loop's clock) or explicit times whose gaps fall below the packet span."""
    if not overlap:
        return [None] * steps
    times, t = [], 0.0
    for _ in range(steps):
        times.append(t)
        t += rnd.choice([0.002, 0.004, 0.007, 0.015])
    return times


def _run_episode(models, readings, times, after_step=None, buffer=None):
    """Run the loop against the oracle's episode over the models as they are now; returns the loop's state.

    ``after_step(state)`` may change the models after each step. With a
    ``buffer`` the caller writes each reading into that one array, in place,
    and hands the loop the array.
    """
    weights = [m.weights.w.tolist() for m in models]
    expected = oracle.episode(weights, readings, times, EncoderParams(), 0.020)
    state = LoopState(models=models, inter_contact_interval=0.020)
    for step, (reading, contact_time) in enumerate(zip(readings, times)):
        if buffer is not None:
            buffer[:] = reading
            reading = buffer
        best, diag = exploration_step(state, reading, contact_time=contact_time)
        scores, evidence, lambdas, pick = expected[step]
        got = (_bytes(diag.scores), state.evidence.evidence.tobytes(), state.evidence.lambdas.tobytes(), best)
        assert got == (_bytes(scores), _bytes(evidence), _bytes(lambdas), pick), f"step {step}"
        if after_step is not None:
            after_step(state)
    return state


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("retrain", [True, False])
@pytest.mark.parametrize("w_max", [None, 0.015])
@pytest.mark.parametrize("overlap", [False, True])
def test_every_step_matches_the_oracle(n, retrain, w_max, overlap):
    """The caller may change its models once the loop is built; the loop scores them as they were.

    With ``w_max`` the caller clips every weight to ±w_max; with ``retrain``
    it trains each model in place, by STDP bounded by ``w_max``, on every
    pair the loop has just scored.
    """
    rnd = random.Random(1000 * n + 100 * retrain + 10 * (w_max is not None) + overlap)
    models = _models(rnd, n, 4)
    readings, times = _readings(rnd, n, 40), _contact_times(rnd, 40, overlap)
    built = [model.weights.w.copy() for model in models]
    seen = {"silent": 0, "non-causal": 0}
    packets = [None]

    def change_models(state):
        # The packet of the step just taken, encoded from its reading at the arrival the loop keeps.
        cur = encode(readings[state.step - 1], EncoderParams(), arrival=state.prev_arrival)
        prev = packets[-1]
        packets.append(cur)
        if w_max is not None and state.step == 1:
            for model in models:
                np.clip(model.weights.w, -w_max, w_max, out=model.weights.w)
        seen["silent"] += not cur
        if prev and cur:
            seen["non-causal"] += not prev.id_time_arrays[1].max() < cur.id_time_arrays[1].min()
            for model in models if retrain else ():
                apply_packet_pair(model.weights.w, prev, cur, StdpParams(w_max=w_max))

    _run_episode(models, readings, times, after_step=change_models)
    # Overlapping packets hold non-causal spike pairs at some steps, which the causal mask must drop;
    # packets a contact interval apart never do.
    assert (seen["non-causal"] > 0) == overlap and seen["silent"] > 0
    changed = any(not np.array_equal(model.weights.w, w) for model, w in zip(models, built))
    assert changed == (retrain or w_max is not None)
    if w_max is not None:
        assert max(np.abs(model.weights.w).max() for model in models) == w_max


def test_overlapping_packets_drop_their_non_causal_pairs():
    rnd = random.Random(21)
    models = _models(rnd, 12, 3)
    readings = [[rnd.choice([0.0, 0.5, rnd.uniform(0.2, 1.0)]) for _ in range(12)] for _ in range(30)]
    # Gaps below the 10 ms packet span, and one contact time that repeats: contact 2 fires one
    # neuron at contact 1's arrival, so no pair of that step is causal.
    times = [0.0, 0.004, 0.004, 0.006] + [0.006 + 0.003 * k for k in range(1, 27)]
    readings[1][0] = 0.9
    readings[2] = [0.0] * 11 + [0.7]
    packets = [encode(r, EncoderParams(), arrival=t) for r, t in zip(readings, times)]
    dropped = sum(
        not pre < post
        for prev, cur in zip(packets, packets[1:])
        for pre in prev.id_time_arrays[1].tolist()
        for post in cur.id_time_arrays[1].tolist()
    )
    assert dropped > 100
    assert not any(pre < post for pre in packets[1].id_time_arrays[1] for post in packets[2].id_time_arrays[1])
    assert _run_episode(models, readings, times).step == 30


def test_touching_packets_drop_their_equal_time_pair():
    # Each contact arrives exactly at the previous packet's last spike, so one pair a step is not causal.
    rnd = random.Random(24)
    models = _models(rnd, 6, 3)
    readings = [[rnd.uniform(0.2, 1.0) for _ in range(6)] for _ in range(12)]
    times = [0.0]
    for reading in readings[:-1]:
        times.append(encode(reading, EncoderParams(), arrival=times[-1]).id_time_arrays[1].max().item())
    assert _run_episode(models, readings, times).step == 12


def test_a_clocked_episode_builds_no_spike_packet():
    # Contacts on the loop's clock never overlap, so the loop reads only each reading's active set and arrival.
    rnd = random.Random(26)
    models = _models(rnd, 8, 3)

    def no_packet(*args, **kwargs):
        raise AssertionError("the loop built a SpikePacket")

    with (mock.patch.object(SpikePacket, "__init__", no_packet),
          mock.patch.object(SpikePacket, "_from_ordered", no_packet)):
        _run_episode(models, _readings(rnd, 8, 40), [None] * 40)


def test_a_reading_buffer_the_caller_reuses_changes_no_later_step():
    # Contacts 2-7 ms apart overlap, so each step reads the spike times of the contact before it, which must be
    # those of the reading it was given, not of the one the caller wrote over it. Every neuron fires.
    rnd = random.Random(25)
    models = _models(rnd, 6, 3)
    readings = [[rnd.uniform(0.2, 1.0) for _ in range(6)] for _ in range(20)]
    times = [0.0]
    for _ in readings[1:]:
        times.append(times[-1] + rnd.choice([0.002, 0.004, 0.007]))
    _run_episode(models, readings, times, buffer=np.empty(6))


def test_a_block_of_negative_zeros_scores_positive_zero():
    rnd = random.Random(22)
    models = [ObjectModel("zeros", WeightMatrix(np.full((6, 6), -0.0)))] + _models(rnd, 6, 2)
    readings = [[rnd.uniform(0.2, 1.0) for _ in range(6)] for _ in range(8)]
    _run_episode(models, readings, [None] * 8)
    state = LoopState(models=models)
    for reading in readings[:2]:
        _, diag = exploration_step(state, reading)
    assert _bytes(diag.scores[:1]) == _bytes([0.0])


def test_a_pair_block_of_4900_synapses():
    # 70 fully active neurons make 4,900 pairs a step.
    rnd = random.Random(23)
    models = _models(rnd, 70, 2)
    _run_episode(models, [[rnd.uniform(0.2, 1.0) for _ in range(70)] for _ in range(4)], [None] * 4)


@pytest.mark.parametrize("active", [(1, 8), (3, 3), (4, 4), (17, 1), (20, 25)], ids=["8", "9", "16", "17", "500"])
@pytest.mark.parametrize("n_models", [1, 2, 3, 8, 9])
def test_step_scores_on_both_sides_of_numpys_unroll_widths(n_models, active):
    # Packets of p and q firing neurons, 20 ms apart, give p * q causal synapses a step: sizes on both sides of
    # the 8- and 16-term widths at which numpy unrolls a sum along its fast axis, where one model's column lies.
    rnd = random.Random(10 * n_models + active[0])
    models = _models(rnd, 25, n_models)
    readings = []
    for k in range(6):
        fired = rnd.sample(range(25), active[k % 2])
        readings.append([rnd.uniform(0.2, 1.0) if i in fired else 0.0 for i in range(25)])
    _run_episode(models, readings, [None] * 6)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    n_models=st.integers(1, 4),
    overlap=st.booleans(),
)
def test_episodes_match_the_oracle(seed, n, n_models, overlap):
    rnd = random.Random(seed)
    models = _models(rnd, n, n_models)
    _run_episode(models, _readings(rnd, n, 12), _contact_times(rnd, 12, overlap))
