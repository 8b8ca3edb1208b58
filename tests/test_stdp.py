"""Pairwise STDP rule and traversal-level training."""

import math
import random

import numpy as np
import pytest

from test_train_reference import _first_error
from tempocode import stdp
from tempocode.encoding import encode_traversal
from tempocode.rng import _CHUNK
from tempocode.stdp import apply_packet_pair, stdp_update, train_on_traversal
from tempocode.types import SpikePacket, StdpParams, Traversal, WeightMatrix
from tempocode.world import discrimination_pair

TAU = 0.020
A = 0.01


def _traversal(vectors, interval=0.020, label=""):
    return Traversal(tuple((np.asarray(v), k * interval) for k, v in enumerate(vectors)), label=label)


class TestStdpUpdate:
    def test_potentiation_at_tau(self):
        assert stdp_update(0.0, 0.0, TAU) == pytest.approx(A * math.exp(-1.0), abs=1e-12)

    def test_depression_at_tau(self):
        assert stdp_update(0.0, TAU, 0.0) == pytest.approx(-A * math.exp(-1.0), abs=1e-12)

    def test_simultaneous_spikes_leave_weight(self):
        assert stdp_update(0.5, 1.0, 1.0) == 0.5

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            stdp_update(float("nan"), 0.0, 1.0)
        with pytest.raises(ValueError):
            stdp_update(0.0, float("inf"), 1.0)

    def test_antisymmetry_over_grid(self):
        # symmetric amplitudes and time constants: potentiation mirrors depression
        for i in range(-50, 51):
            dt = i * 0.1 * TAU
            up = stdp_update(0.0, 0.0, dt)
            down = stdp_update(0.0, dt, 0.0)
            assert up == pytest.approx(-down, abs=1e-15)

    def test_window_decays_monotonically(self):
        mags = [abs(stdp_update(0.0, 0.0, i * 0.1 * TAU)) for i in range(1, 51)]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert abs(stdp_update(0.0, 0.0, 100 * TAU)) < 1e-40

    def test_asymmetric_params(self):
        p = StdpParams(a_plus=0.02, a_minus=0.005, tau_plus=0.010, tau_minus=0.040)
        assert stdp_update(0.0, 0.0, 0.010, p) == pytest.approx(0.02 * math.exp(-1.0), abs=1e-15)
        assert stdp_update(0.0, 0.020, 0.0, p) == pytest.approx(-0.005 * math.exp(-0.5), abs=1e-15)

    def test_optional_clip(self):
        p = StdpParams(w_max=0.005)
        assert stdp_update(0.004, 0.0, 1e-6, p) == 0.005
        assert stdp_update(-0.004, 1e-6, 0.0, p) == -0.005


def _expected_one_pass_of_a():
    """Independent oracle: enumerate blocks and dts from first principles.

    Offsets are hand-derived from the canonical vectors under the strict
    0.1 threshold: S actives (0@0, 1@tau/2), C actives (1@0, 0@tau/3,
    2@2tau/3), E actives (2@0, 1@tau/2), contacts 0.020 s apart.
    """
    s_off = {0: 0.0, 1: 0.005}
    c_off = {1: 0.0, 0: 0.010 / 3, 2: 0.020 / 3}
    e_off = {2: 0.0, 1: 0.005}
    w = np.zeros((3, 3))
    for pre, t_pre in s_off.items():
        for post, t_post in c_off.items():
            dt = (0.020 + t_post) - t_pre
            w[pre, post] += A * math.exp(-dt / TAU)
    for pre, t_pre in c_off.items():
        for post, t_post in e_off.items():
            dt = (0.040 + t_post) - (0.020 + t_pre)
            w[pre, post] += A * math.exp(-dt / TAU)
    return w


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

    def test_rejects_out_of_range_neuron_ids(self):
        packets = [SpikePacket({0: 0.0}), SpikePacket({5: 0.0}, arrival=0.020)]
        with pytest.raises(ValueError):
            train_on_traversal(WeightMatrix.zeros(3), packets)

    def test_pair_iteration_order_is_immaterial(self):
        # oracle: apply the same increments as an explicit event list in
        # shuffled order; each increment depends only on spike times
        vectors = [np.array([0.9, 0.2, 0.4]), np.array([0.2, 0.8, 0.3]), np.array([0.5, 0.2, 0.9]), np.array([0.7, 0.6, 0.2])]
        packets = encode_traversal(_traversal(vectors))
        trained = train_on_traversal(WeightMatrix.zeros(3), packets)
        events = []
        for prev, cur in zip(packets, packets[1:]):
            for i, ti in prev.items():
                for j, tj in cur.items():
                    events.append((i, j, (cur.arrival + tj) - (prev.arrival + ti)))
        rnd = random.Random(99)
        for _ in range(5):
            rnd.shuffle(events)
            w = np.zeros((3, 3))
            for i, j, dt in events:
                w[i, j] += A * math.exp(-dt / TAU)
            np.testing.assert_allclose(w, trained.w, rtol=0, atol=1e-15)

    def test_self_pairs_updated(self):
        vectors = [np.array([0.9, 0.2, 0.1]), np.array([0.9, 0.2, 0.1])]
        packets = encode_traversal(_traversal(vectors))
        with_self = train_on_traversal(WeightMatrix.zeros(3), packets)
        assert with_self.w[0, 0] > 0 and with_self.w[1, 1] > 0


def _pairwise_reference(weights, prev, cur, params):
    """The scalar definition: stdp_update on every prev x cur synapse."""
    for i, t_pre in prev.items():
        for j, t_post in cur.items():
            weights[i, j] = stdp_update(weights[i, j], prev.arrival + t_pre, cur.arrival + t_post, params)


def _random_packet(rnd, n, size, arrival):
    ids = rnd.sample(range(n), size)
    # offsets on a 1 ms grid, so packets that overlap in time give exact dt == 0
    offsets = [0.0] + [0.001 * k for k in rnd.sample(range(1, 40), size - 1)]
    return SpikePacket(dict(zip(ids, offsets)), arrival=arrival)


class TestApplyPacketPairMatchesScalarRule:
    """apply_packet_pair against a stdp_update loop, compared as bytes."""

    def test_random_cases(self):
        rnd = random.Random(2024)
        n = 32
        for case in range(300):
            # sizes run from a single synapse to 24 x 24 blocks
            prev = _random_packet(rnd, n, rnd.randint(1, 24), 0.0)
            cur = _random_packet(rnd, n, rnd.randint(1, 24), rnd.choice([0.0, 0.003, 0.010, 0.020, 0.045]))
            params = StdpParams(
                a_plus=rnd.choice([0.01, 0.3]),
                a_minus=rnd.choice([0.01, 0.07]),
                tau_plus=rnd.choice([0.020, 0.007]),
                tau_minus=rnd.choice([0.020, 0.013]),
                w_max=rnd.choice([None, 0.05, 0.2]),
            )
            weights = np.array([[rnd.choice([0.0, -0.0, rnd.uniform(-0.3, 0.3)]) for _ in range(n)] for _ in range(n)])
            expected = weights.copy()
            _pairwise_reference(expected, prev, cur, params)
            apply_packet_pair(weights, prev, cur, params)
            assert weights.tobytes() == expected.tobytes(), f"case {case}"

    def test_overlapping_packets_depress_and_skip_simultaneous_spikes(self):
        prev = SpikePacket({i: 0.001 * i for i in range(10)}, arrival=0.0)
        cur = SpikePacket({i + 5: 0.001 * i for i in range(10)}, arrival=0.004)
        params = StdpParams(w_max=0.005)
        weights = np.full((16, 16), 0.004)
        expected = weights.copy()
        _pairwise_reference(expected, prev, cur, params)
        apply_packet_pair(weights, prev, cur, params)
        assert weights.tobytes() == expected.tobytes()
        assert (weights < 0.004).any() and (weights == 0.004).any() and (weights == 0.005).any()

    def test_rejects_out_of_range_ids(self):
        prev = SpikePacket({i: 0.001 * i for i in range(8)}, arrival=0.0)
        cur = SpikePacket({i + 1: 0.001 * i for i in range(8)}, arrival=0.020)
        with pytest.raises(ValueError, match="out of range"):
            apply_packet_pair(np.zeros((8, 8)), prev, cur)

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
    """One increment block per traversal, folded pair by pair, against stdp_update on every synapse."""

    def test_random_traversals(self):
        rnd = random.Random(7)
        n = 24
        for case in range(150):
            packets = []
            for k in range(rnd.randint(0, 7)):
                size = rnd.choice([0, 1, rnd.randint(1, 16)])
                # arrivals 5 ms apart with offsets up to 39 ms: packets may overlap, and may hold dt == 0
                packets.append(_random_packet(rnd, n, size, 0.005 * k) if size else SpikePacket({}, arrival=0.005 * k))
            params = StdpParams(a_plus=rnd.choice([0.01, 0.3]), w_max=rnd.choice([None, 0.02, 0.2]))
            values = [[rnd.choice([0.0, -0.0, rnd.uniform(-0.3, 0.3)]) for _ in range(n)] for _ in range(n)]
            start = WeightMatrix(np.array(values))
            expected = start.w.copy()
            for prev, cur in zip(packets, packets[1:]):
                _pairwise_reference(expected, prev, cur, params)
            trained = train_on_traversal(start, packets, params)
            assert trained.w.tobytes() == expected.tobytes(), f"case {case}"

    def test_a_weight_that_overflowed_raises_when_a_later_pair_reads_it(self):
        packets = [SpikePacket({0: 0.0}, arrival=0.020 * k) for k in range(3)]
        params = StdpParams(a_plus=1e308)
        start = WeightMatrix(np.full((1, 1), 1.7e308))
        with pytest.warns(RuntimeWarning, match="overflow"):
            trained = train_on_traversal(start, packets[:2], params)  # the last update may overflow
            assert trained.w[0, 0] == math.inf
            with pytest.raises(ValueError, match="finite"):
                train_on_traversal(start, packets, params)

    def test_non_finite_times_raise_only_on_a_synapse_to_update(self):
        far = SpikePacket({0: 0.0, 1: 1e308}, arrival=1e308)  # global time of neuron 1 overflows
        near = SpikePacket({0: 0.0}, arrival=0.020)
        empty = SpikePacket({}, arrival=0.040)
        train_on_traversal(WeightMatrix.zeros(2), [far, empty, near])
        # Finite times 3.4e308 apart overflow dt; that alone is no error, and the
        # packet before the empty one updates no synapse, so its times go unread.
        high, low = SpikePacket({0: 0.0}, arrival=1.7e308), SpikePacket({1: 0.0}, arrival=-1.7e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            trained = train_on_traversal(WeightMatrix.zeros(2), [far, empty, high, low])
        assert trained.w[0, 1] == 0.0  # exp(-inf) == 0.0: no change
        with pytest.raises(ValueError, match="finite"):
            train_on_traversal(WeightMatrix.zeros(2), [near, empty, near, far])


class TestIncrementsFollowMathExp:
    """``_increments`` takes ``exp`` from :mod:`math` for every element.

    As with Box-Muller's ``log`` and ``cos``, numpy's ``exp`` may agree with
    libm on a given build, so only a shim that moves every result by a
    known amount tells them apart, and a lost element too.
    """

    def test_every_element_follows_math_exp(self, monkeypatch):
        size = 2 * _CHUNK + 3
        dt = np.random.default_rng(3).uniform(-0.1, 0.1, size)
        dt[[0, _CHUNK, size - 1]] = 0.0
        dt[[1, _CHUNK + 1]] = -0.0
        params = StdpParams(a_plus=0.3, a_minus=0.07, tau_plus=0.007, tau_minus=0.013)
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: exp(x) + 0.25)
        got = stdp._increments(dt, params)
        monkeypatch.undo()

        def want(d):
            if d > 0.0:
                return params.a_plus * (exp(-d / params.tau_plus) + 0.25)
            if d < 0.0:
                return -(params.a_minus * (exp(d / params.tau_minus) + 0.25))
            return -0.0

        assert got.tobytes() == np.array([want(d) for d in dt.tolist()]).tobytes()


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


def _phase_reference(weights, traversals, params):
    """stdp_update pair after pair, each pair written whole or not at all.

    Each traversal after the first starts as training a fresh
    ``WeightMatrix`` does, by checking the whole matrix.
    """
    for t, packets in enumerate(traversals):
        if t:
            WeightMatrix(weights)
        for prev, cur in zip(packets, packets[1:]):
            pair = weights.copy()
            _pairwise_reference(pair, prev, cur, params)
            weights[...] = pair


class TestScatterAddFold:
    """Without ``w_max``, a block is folded by one scatter-add: bytes and first error against the pair loop."""

    @staticmethod
    def _assert_matches(values, traversals, params):
        weights, expected = values.copy(), values.copy()
        expected_error = _first_error(lambda: _phase_reference(expected, traversals, params))
        got_error = _first_error(lambda: stdp._fold_traversals(weights, *_phase_arrays(traversals), params))
        assert got_error == expected_error
        assert weights.tobytes() == expected.tobytes()
        return got_error

    @pytest.mark.parametrize("slots", [36, stdp._SLOTS])
    def test_every_synapse_repeats_in_every_pair(self, slots, monkeypatch):
        # Four 3 x 3 pairs per traversal: one traversal per block, or all of them in one.
        monkeypatch.setattr(stdp, "_SLOTS", slots)
        rnd = random.Random(31)
        # Packets 5 ms apart with offsets up to 39 ms overlap, so some dt are exactly 0.
        traversals = [[_random_packet(rnd, 3, 3, 0.005 * k) for k in range(5)] for _ in range(6)]
        values = np.array([[rnd.choice([0.0, -0.0, rnd.uniform(-0.3, 0.3)]) for _ in range(3)] for _ in range(3)])
        assert self._assert_matches(values, traversals, StdpParams(a_plus=0.3, a_minus=0.07)) is None

    @pytest.mark.parametrize(
        "synapse, n_traversals, expected",
        [
            # The first traversal never touches neuron 2, nor either traversal neuron 3:
            # the second raises as it starts.
            ((2, 2), 2, "weight matrix contains non-finite entries"),
            ((3, 3), 2, "weight matrix contains non-finite entries"),
            # A lone traversal leaves an untouched NaN as it is.
            ((2, 2), 1, None),
            ((3, 3), 1, None),
            # The second pair reads the NaN: the first pair stays written.
            ((1, 0), 1, "stdp_update requires finite weight and spike times"),
            ((1, 0), 2, "stdp_update requires finite weight and spike times"),
        ],
    )
    def test_a_non_finite_entry_raises_where_the_pair_loop_does(self, synapse, n_traversals, expected):
        first = [
            SpikePacket({0: 0.0}, arrival=0.0),
            SpikePacket({1: 0.0}, arrival=0.020),
            SpikePacket({0: 0.0, 1: 0.004}, arrival=0.040),
        ]
        second = [SpikePacket({0: 0.0, 1: 0.002, 2: 0.005}, arrival=0.020 * k) for k in range(3)]
        values = np.full((4, 4), 0.01)
        values[synapse] = math.nan
        assert self._assert_matches(values, [first, second][:n_traversals], StdpParams()) == expected

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
        expected = values.copy()
        for prev, cur in zip(packets, packets[1:]):
            _pairwise_reference(expected, prev, cur, StdpParams())
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
