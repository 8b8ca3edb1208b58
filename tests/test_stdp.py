"""Pairwise STDP rule and traversal-level training."""

import dataclasses
import hashlib
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tempocode import rng, stdp
from tempocode.encoding import EncoderParams, _encode_block, encode_traversal
from tempocode.rng import _CHUNK
from tempocode.stdp import apply_packet_pair, train_on_traversal
from tempocode.types import SpikePacket, StdpParams, Traversal, WeightMatrix
from tempocode.world import discrimination_pair

TAU = 0.020
A = 0.01


def _traversal(vectors, interval=0.020, label=""):
    return Traversal(tuple((np.asarray(v), k * interval) for k, v in enumerate(vectors)), label=label)


def _first_error(run):
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


def _updated(w, pre_time, post_time, params=StdpParams()):
    """Synapse 0 -> 1 of a 2-neuron matrix of ``w`` after one pair of one-spike packets, by ``train_on_traversal``."""
    packets = [SpikePacket({0: 0.0}, arrival=pre_time), SpikePacket({1: 0.0}, arrival=post_time)]
    return float(train_on_traversal(WeightMatrix(np.full((2, 2), w)), packets, params).w[0, 1])


class TestStdpUpdate:
    """The pairwise window, through one-spike packet pairs.

    Acceptance criterion 6 checks its value at tau, its antisymmetry and its decay.
    """

    @pytest.mark.parametrize(
        "w, pre, post, params, expected, tolerance",
        [
            (0.0, TAU, 0.0, StdpParams(), -A * math.exp(-1.0), 1e-12),
            (0.5, 1.0, 1.0, StdpParams(), 0.5, 0.0),
            (0.0, 0.0, 0.010, StdpParams(a_plus=0.02, a_minus=0.005, tau_plus=0.010, tau_minus=0.040),
             0.02 * math.exp(-1.0), 1e-15),
            (0.0, 0.020, 0.0, StdpParams(a_plus=0.02, a_minus=0.005, tau_plus=0.010, tau_minus=0.040),
             -0.005 * math.exp(-0.5), 1e-15),
            (0.004, 0.0, 1e-6, StdpParams(w_max=0.005), 0.005, 0.0),
            (-0.004, 1e-6, 0.0, StdpParams(w_max=0.005), -0.005, 0.0),
        ],
        ids=["depression-at-tau", "simultaneous-spikes-leave-weight", "asymmetric-potentiation",
             "asymmetric-depression", "clip-above", "clip-below"],
    )
    def test_examples(self, w, pre, post, params, expected, tolerance):
        assert _updated(w, pre, post, params) == pytest.approx(expected, rel=0.0, abs=tolerance)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            _updated(float("nan"), 0.0, 1.0)
        # Neuron 1's global time, 1e308 + 1e308, overflows to inf.
        far = SpikePacket({0: 0.0, 1: 1e308}, arrival=1e308)
        with pytest.raises(ValueError, match="finite"):
            train_on_traversal(WeightMatrix.zeros(2), [far, SpikePacket({0: 0.0}, arrival=0.020)])


def _expected_one_pass_of_a():
    """The oracle's weights on packets whose spike times are derived by hand.

    Under the strict 0.1 threshold the canonical vectors fire S (0@0,
    1@tau/2), C (1@0, 0@tau/3, 2@2tau/3) and E (2@0, 1@tau/2), contacts 0.020 s apart.
    """
    packets = [
        [(0, 0.0), (1, 0.005)],
        [(1, 0.020), (0, 0.020 + 0.010 / 3), (2, 0.020 + 0.020 / 3)],
        [(2, 0.040), (1, 0.045)],
    ]
    return np.array(oracle.train(np.zeros((3, 3)).tolist(), [packets], StdpParams()))


class TestTrainOnTraversal:
    def test_one_pass_matches_hand_trace(self):
        obj_a = discrimination_pair()[0]
        packets = encode_traversal(_traversal(obj_a.contacts))
        trained = train_on_traversal(WeightMatrix.zeros(3), packets)
        np.testing.assert_allclose(trained.w, _expected_one_pass_of_a(), rtol=0, atol=1e-15)

    def test_one_pass_structure(self):
        obj_a = discrimination_pair()[0]
        trained = train_on_traversal(WeightMatrix.zeros(3), encode_traversal(_traversal(obj_a.contacts)))
        w = trained.w
        assert w[0, 1] > 0  # smooth -> curved
        assert w[1, 2] > 0  # curved -> edge
        # the only pre/post pair never co-active in consecutive contacts
        assert w[2, 0] == 0.0
        # nothing is ever depressed: consecutive packets are causally ordered
        assert np.all(w >= 0.0)

    def test_forward_chain_dominates_reverse(self):
        obj_a, obj_b = discrimination_pair()
        w_a = train_on_traversal(WeightMatrix.zeros(3), encode_traversal(_traversal(obj_a.contacts))).w
        w_b = train_on_traversal(WeightMatrix.zeros(3), encode_traversal(_traversal(obj_b.contacts))).w
        assert w_a[0, 1] + w_a[1, 2] > w_a[2, 1] + w_a[1, 0]
        assert w_b[2, 1] + w_b[1, 0] > w_b[0, 1] + w_b[1, 2]

    def test_short_traversals_leave_matrix_unchanged(self):
        w = WeightMatrix.zeros(3)
        assert np.array_equal(train_on_traversal(w, []).w, w.w)
        one = [SpikePacket({0: 0.0})]
        assert np.array_equal(train_on_traversal(w, one).w, w.w)

    def test_input_matrix_not_mutated(self):
        obj_a = discrimination_pair()[0]
        w = WeightMatrix.zeros(3)
        train_on_traversal(w, encode_traversal(_traversal(obj_a.contacts)))
        assert np.all(w.w == 0.0)

    def test_mirror_world_symmetry(self):
        # tie-free mirror pair: the middle contact activates one neuron only,
        # so the 0<->2 relabeling is an exact automorphism of A-then-B training
        s, mid, e = np.array([0.9, 0.2, 0.1]), np.array([0.05, 0.8, 0.05]), np.array([0.1, 0.2, 0.9])
        packets_a = encode_traversal(_traversal([s, mid, e]))
        packets_b = encode_traversal(_traversal([e, mid, s]))
        w = train_on_traversal(train_on_traversal(WeightMatrix.zeros(3), packets_a), packets_b).w
        assert w[0, 1] == w[2, 1]
        assert w[1, 0] == w[1, 2]
        assert w[0, 0] == w[2, 2]
        assert w[0, 2] == w[2, 0]

    def test_self_pairs_updated(self):
        vectors = [np.array([0.9, 0.2, 0.1]), np.array([0.9, 0.2, 0.1])]
        packets = encode_traversal(_traversal(vectors))
        with_self = train_on_traversal(WeightMatrix.zeros(3), packets)
        assert with_self.w[0, 0] > 0 and with_self.w[1, 1] > 0


def _random_packet(rnd, n, size, arrival):
    """A packet of ``size`` distinct random ids out of ``n``, empty at size 0."""
    ids = rnd.sample(range(n), size)
    # offsets on a 1 ms grid, so packets that overlap in time give exact dt == 0
    offsets = [0.0] + [0.001 * k for k in rnd.sample(range(1, 40), size - 1)] if size else []
    return SpikePacket(dict(zip(ids, offsets)), arrival=arrival)


def _packet(packet):
    """A :class:`SpikePacket` as the oracle's packet: (id, global time) in firing order."""
    return [(nid, packet.arrival + offset) for nid, offset in packet.by_time()]


def _oracle_train(weights, traversals, params):
    """The oracle's weights after ``traversals`` (lists of packets), as an array."""
    return np.array(oracle.train(weights.tolist(), [[_packet(p) for p in packets] for packets in traversals], params))


class TestApplyPacketPairMatchesScalarRule:
    """apply_packet_pair against the oracle's scalar rule, compared as bytes."""

    def test_overlapping_packets_depress_and_skip_simultaneous_spikes(self):
        prev = SpikePacket({i: 0.001 * i for i in range(10)}, arrival=0.0)
        cur = SpikePacket({i + 5: 0.001 * i for i in range(10)}, arrival=0.004)
        params = StdpParams(w_max=0.005)
        weights = np.full((16, 16), 0.004)
        expected = _oracle_train(weights, [[prev, cur]], params)
        apply_packet_pair(weights, prev, cur, params)
        assert weights.tobytes() == expected.tobytes()
        assert (weights < 0.004).any() and (weights == 0.004).any() and (weights == 0.005).any()

    def test_rejects_non_finite_weights_it_would_update(self):
        prev = SpikePacket({i: 0.001 * i for i in range(8)}, arrival=0.0)
        cur = SpikePacket({i: 0.001 * i for i in range(8)}, arrival=0.020)
        for small in (False, True):
            packets = (SpikePacket({0: 0.0}), SpikePacket({0: 0.0}, arrival=0.020)) if small else (prev, cur)
            weights = np.zeros((8, 8))
            weights[0, 0] = math.nan
            with pytest.raises(ValueError, match="finite"):
                apply_packet_pair(weights, *packets)

    def test_rejects_non_finite_spike_times(self):
        prev = SpikePacket({i: 1e308 * (i / 8) for i in range(8)}, arrival=1e308)
        cur = SpikePacket({i: 0.001 * i for i in range(8)}, arrival=0.020)
        with pytest.raises(ValueError, match="finite"):
            apply_packet_pair(np.zeros((8, 8)), prev, cur)


class TestTrainOnTraversalMatchesScalarRule:
    """Weights that pass the largest double, against the oracle's scalar rule."""

    def test_a_weight_that_overflows_raises_and_no_matrix_is_returned(self):
        # The first pair overflows 1.7e308 with no warning (a test fails on one), whether
        # or not a later pair reads the inf; apply_packet_pair leaves its array as it was.
        packets = [SpikePacket({0: 0.0}, arrival=0.020 * k) for k in range(3)]
        params = StdpParams(a_plus=1e308)
        start = WeightMatrix(np.full((1, 1), 1.7e308))
        for n_packets in (2, 3):
            assert _first_error(lambda: train_on_traversal(start, packets[:n_packets], params)) == stdp._OVERFLOW
        weights = start.w.copy()
        assert _first_error(lambda: apply_packet_pair(weights, packets[0], packets[1], params)) == stdp._OVERFLOW
        assert weights.tobytes() == start.w.tobytes() == np.full((1, 1), 1.7e308).tobytes()

    def test_a_clipped_sum_that_overflows_gives_w_max_without_a_warning(self):
        # The second pair's sum passes the largest double; the scalar rule clips the inf
        # to w_max silently, and so must the fold.
        packets = [SpikePacket({0: 0.0}, arrival=0.020 * k) for k in range(3)]
        params = StdpParams(a_plus=1.5e308, tau_plus=1e6, w_max=1.6e308)
        expected = _oracle_train(np.zeros((1, 1)), [packets], params)
        assert expected.tolist() == [[1.6e308]]
        trained = train_on_traversal(WeightMatrix.zeros(1), packets, params)
        assert trained.w.tobytes() == expected.tobytes()

    def test_non_finite_times_raise_only_on_a_synapse_to_update(self):
        far = SpikePacket({0: 0.0, 1: 1e308}, arrival=1e308)  # global time of neuron 1 overflows
        near = SpikePacket({0: 0.0}, arrival=0.020)
        empty = SpikePacket({}, arrival=0.040)
        train_on_traversal(WeightMatrix.zeros(2), [far, empty, near])
        # Finite times 3.4e308 apart overflow dt; that alone is no error, nor a warning,
        # and the packet before the empty one updates no synapse, so its times go unread.
        high, low = SpikePacket({0: 0.0}, arrival=1.7e308), SpikePacket({1: 0.0}, arrival=-1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trained = train_on_traversal(WeightMatrix.zeros(2), [far, empty, high, low])
        assert trained.w.tolist() == [[0.0, 0.0], [0.0, 0.0]]  # exp(-inf) == 0.0: no change
        with pytest.raises(ValueError, match="finite"):
            train_on_traversal(WeightMatrix.zeros(2), [near, empty, near, far])
        # Two infinite spike times give an inf - inf dt: the error of a non-finite time, not numpy's warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                train_on_traversal(WeightMatrix.zeros(2), [far, SpikePacket({0: 0.0, 1: 1e308}, arrival=1.5e308)])


class TestIncrementsFollowMathExp:
    """``_increments`` gives every element the bits of the oracle's increment, with :mod:`math`'s ``exp``.

    The increments take libm's ``exp`` through ``rng._libm``, on the route
    the probe chose, and two tests also force the :mod:`math` fallback. numpy's contiguous float64 ``exp`` is a kernel of
    its own on some CPUs (on an AVX512F Xeon with numpy 2.4.6 it differs
    from libm on 4–5% of inputs), so these samples also catch a slide
    back to it there. A ``RuntimeWarning`` fails the test wherever it runs.
    """

    PARAMS = StdpParams(a_plus=0.3, a_minus=0.07, tau_plus=0.007, tau_minus=0.013)
    #: A window of ``-|dt|`` exactly, and an increment of ``±exp(-|dt|)`` exactly.
    UNIT = StdpParams(a_plus=1.0, a_minus=1.0, tau_plus=1.0, tau_minus=1.0)

    @staticmethod
    def _scalar(dt, params):
        return np.array([oracle.increment(d, params) for d in dt.tolist()])

    def _assert_bits(self, dt, params):
        dt = np.array(dt, dtype=float)
        assert stdp._increments(dt, params).tobytes() == self._scalar(dt, params).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_random_sample_with_zeros(self):
        size = 2 * _CHUNK + 3
        dt = np.random.default_rng(3).uniform(-0.1, 0.1, size)
        dt[[0, _CHUNK, size - 1]] = 0.0
        dt[[1, _CHUNK + 1]] = -0.0
        self._assert_bits(dt, self.PARAMS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dense_grid_over_the_whole_window_domain(self):
        # Windows from -746 to 0: exp underflows to subnormals near -708 and to 0 past -745.13.
        grid = np.linspace(0.0, 746.0, 200_001)
        self._assert_bits(np.concatenate([grid, -grid]), self.UNIT)
        self._assert_bits(np.linspace(-5.0, 5.0, 100_001), self.PARAMS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_consecutive_doubles(self):
        band = 0.75 + np.arange(100_000) * np.spacing(0.75)
        self._assert_bits(np.concatenate([band, -band]), self.UNIT)
        underflow = np.nextafter(708.39, 0.0) + np.arange(50_000) * np.spacing(708.39)
        self._assert_bits(np.concatenate([underflow, -underflow]), self.UNIT)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_values(self):
        tiny = np.finfo(float).smallest_subnormal
        # 1.7e308 / 0.007 overflows the window to -inf, with no warning, as in the scalar rule.
        edges = [np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 744.44, 745.13, 745.14, 1e300, -1e300, 1.7e308, -1.7e308]
        self._assert_bits(edges, self.UNIT)
        self._assert_bits(edges, self.PARAMS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_math_fallback_keeps_the_bits(self, monkeypatch):
        monkeypatch.setattr(rng, "_overlap_is_libm", lambda: False)
        self.test_random_sample_with_zeros()
        self.test_edge_values()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_dt_gets_one_increment_in_any_block(self):
        # An all-potentiating block takes scalar operands, a mixed one per-element operands: same bits.
        dt = np.concatenate([np.random.default_rng(8).uniform(1e-6, 0.1, 3 * _CHUNK), [np.inf, 1.7e308]])
        alone = stdp._increments(dt, self.PARAMS)
        mixed = stdp._increments(np.concatenate([dt, [0.0, -0.0, -0.02, -np.inf]]), self.PARAMS)
        assert alone.tobytes() == mixed[: dt.size].tobytes() == self._scalar(dt, self.PARAMS).tobytes()

    def test_pinned_bits(self, libm_route):
        # sha256 of a fixed sample's increments: a numpy or libm upgrade that moves any bit fails here.
        dt = np.array([0.2 * (u - 0.5) for u in oracle.uniforms(11, 10_000)])
        dt[::1000] = 0.0
        digest = hashlib.sha256(stdp._increments(dt, self.PARAMS).tobytes()).hexdigest()
        assert digest == "9bce2fb15e50015ca1413516b22775da2055e6dbe5185d534421f62a0385c7f6"


def _phase_arrays(traversals):
    """The padded (ids, times, counts) arrays of ``_fold_traversals`` from lists of packets."""
    m = max(len(packet) for packets in traversals for packet in packets)
    shape = (len(traversals), len(traversals[0]), m)
    ids, times, counts = np.zeros(shape, dtype=np.intp), np.zeros(shape), np.zeros(shape[:2], dtype=np.intp)
    for t, packets in enumerate(traversals):
        for k, packet in enumerate(packets):
            packet_ids, packet_times = packet.id_time_arrays
            c = packet_ids.size
            ids[t, k, :c], times[t, k, :c], counts[t, k] = packet_ids, packet_times, c
    return ids, times, counts


class TestScatterAddFold:
    """Without ``w_max``, a block is folded by one scatter-add: bytes against the pair loop."""

    @staticmethod
    def _assert_matches(values, traversals, params):
        weights, expected = values.copy(), _oracle_train(values, traversals, params)
        stdp._fold_traversals(weights, *_phase_arrays(traversals), params)
        assert weights.tobytes() == expected.tobytes()
        return weights

    @pytest.mark.parametrize("slots", [1, 4, 36, stdp._SLOTS])
    def test_every_synapse_repeats_in_every_pair(self, slots, monkeypatch):
        # Four 3 x 3 pairs per traversal: a block of one traversal (1, 4 and 36 slots) or all of them.
        monkeypatch.setattr(stdp, "_SLOTS", slots)
        rnd = random.Random(31)
        # Packets 5 ms apart with offsets up to 39 ms overlap, so some dt are exactly 0.
        traversals = [[_random_packet(rnd, 3, 3, 0.005 * k) for k in range(5)] for _ in range(6)]
        values = np.array([[rnd.choice([0.0, -0.0, rnd.uniform(-0.3, 0.3)]) for _ in range(3)] for _ in range(3)])
        params = StdpParams(a_plus=0.3, a_minus=0.07)
        scattered = self._assert_matches(values, traversals, params)
        # A w_max that never binds takes the pair loop, which must give the scatter-add's bytes.
        clipped = self._assert_matches(values, traversals, dataclasses.replace(params, w_max=1e300))
        assert clipped.tobytes() == scattered.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        spacing=st.sampled_from([0.005, 0.05]),
        w_max=st.sampled_from([None, 0.05, 1e300]),
        data=st.data(),
    )
    def test_the_slot_order_within_a_contact_leaves_every_byte(self, seed, spacing, w_max, data):
        # A pair touches each synapse once, so each contact's (id, time) slots may come in any order.
        # Packets 5 ms apart overlap (dt == 0 and dt < 0); 50 ms apart every dt is positive.
        rnd = random.Random(seed)
        traversals = [[_random_packet(rnd, 5, rnd.randint(1, 5), spacing * k) for k in range(4)] for _ in range(3)]
        ids, times, counts = _phase_arrays(traversals)
        shuffled_ids, shuffled_times = ids.copy(), times.copy()
        for t, k in np.ndindex(counts.shape):
            order = data.draw(st.permutations(range(counts[t, k])))
            shuffled_ids[t, k, : len(order)], shuffled_times[t, k, : len(order)] = ids[t, k, order], times[t, k, order]
        values = np.array([[rnd.choice([0.0, -0.0, rnd.uniform(-0.1, 0.1)]) for _ in range(5)] for _ in range(5)])
        params = StdpParams(a_plus=0.3, a_minus=0.07, w_max=w_max)
        weights = self._assert_matches(values, traversals, params)
        stdp._fold_traversals(values, shuffled_ids, shuffled_times, counts, params)
        assert values.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("w_max", [None, 0.05])
    def test_ids_past_each_count_are_never_read(self, w_max):
        # The block encoder leaves the slots past a contact's count in whatever order its sort gave.
        block = 0.1 + 0.3 * np.random.default_rng(4).standard_normal((3, 6, 64))
        ids, times, counts = _encode_block(block, [k * 0.020 for k in range(6)], EncoderParams())
        assert (counts < ids.shape[-1]).any()
        permuted = ids.copy()
        shuffle = np.random.default_rng(5).permutation
        for t, k in np.ndindex(counts.shape):
            permuted[t, k, counts[t, k] :] = shuffle(ids[t, k, counts[t, k] :])
        assert (permuted != ids).any()
        params = StdpParams(a_plus=0.3, a_minus=0.07, w_max=w_max)
        weights, again = np.zeros((64, 64)), np.zeros((64, 64))
        stdp._fold_traversals(weights, ids, times, counts, params)
        stdp._fold_traversals(again, permuted, times, counts, params)
        assert weights.any() and again.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("synapse", [(2, 2), (3, 3), (1, 0)])
    def test_a_non_finite_entry_is_rejected_before_anything_is_written(self, synapse, value):
        # The pair 1 -> {0, 1} updates (1, 0) and never (2, 2) or (3, 3): either way nothing is written.
        prev, cur = SpikePacket({1: 0.0}, arrival=0.020), SpikePacket({0: 0.0, 1: 0.004}, arrival=0.040)
        values = np.full((4, 4), 0.01)
        values[synapse] = value
        with pytest.raises(ValueError, match="weight matrix contains non-finite entries"):
            WeightMatrix(values)
        weights = values.copy()
        with pytest.raises(ValueError, match="weight matrix contains non-finite entries"):
            apply_packet_pair(weights, prev, cur)
        assert weights.tobytes() == values.tobytes()

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
    def test_apply_packet_pair_updates_a_non_contiguous_matrix_in_place(self, layout):
        rnd = random.Random(11)
        n = 12
        values = np.array([[rnd.choice([0.0, -0.0, rnd.uniform(-0.3, 0.3)]) for _ in range(n)] for _ in range(n)])
        packets = [_random_packet(rnd, n, rnd.randint(1, n), 0.005 * k) for k in range(4)]
        if layout == "transposed":
            weights = np.ascontiguousarray(values.T).T
        elif layout == "fortran":
            weights = np.asfortranarray(values)
        else:
            weights = np.zeros((2 * n, 3 * n))[::2, ::3]
            weights[...] = values
        assert not weights.flags.c_contiguous
        expected = _oracle_train(values, [packets], StdpParams())
        for prev, cur in zip(packets, packets[1:]):
            apply_packet_pair(weights, prev, cur)
        assert np.ascontiguousarray(weights).tobytes() == expected.tobytes()


class TestPacketIdRange:
    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_apply_packet_pair_names_the_id(self, bad_id):
        good = SpikePacket({0: 0.0, 1: 0.002}, arrival=0.0)
        bad = SpikePacket({bad_id: 0.0, 2: 0.004}, arrival=0.020)
        for prev, cur in ((good, bad), (bad, good)):
            weights = np.zeros((3, 3))
            with pytest.raises(ValueError, match=f"packet neuron id {bad_id} out of range"):
                apply_packet_pair(weights, prev, cur)
            assert not weights.any()

    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_train_on_traversal_names_the_id(self, bad_id):
        good = SpikePacket({0: 0.0, 1: 0.002}, arrival=0.0)
        bad = SpikePacket({bad_id: 0.0, 2: 0.004}, arrival=0.020)
        for packets in ([bad], [good, bad], [bad, good], [good, good, bad]):
            with pytest.raises(ValueError, match=f"packet neuron id {bad_id} out of range"):
                train_on_traversal(WeightMatrix.zeros(3), packets)
