"""Pairwise STDP rule and traversal-level training."""

import math
import random

import numpy as np
import pytest

from tempocode.encoding import encode_traversal
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

    def test_self_pairs_updated_by_default_excludable(self):
        vectors = [np.array([0.9, 0.2, 0.1]), np.array([0.9, 0.2, 0.1])]
        packets = encode_traversal(_traversal(vectors))
        with_self = train_on_traversal(WeightMatrix.zeros(3), packets)
        assert with_self.w[0, 0] > 0 and with_self.w[1, 1] > 0
        without = train_on_traversal(WeightMatrix.zeros(3), packets, include_self_pairs=False)
        assert np.all(np.diag(without.w) == 0.0)
        off_diag = ~np.eye(3, dtype=bool)
        assert np.array_equal(without.w[off_diag], with_self.w[off_diag])


def _pairwise_reference(weights, prev, cur, params, include_self_pairs):
    """The scalar definition: stdp_update on every prev x cur synapse."""
    for i, t_pre in prev.items():
        for j, t_post in cur.items():
            if not include_self_pairs and i == j:
                continue
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
            include_self = rnd.random() < 0.5
            weights = np.array([[rnd.choice([0.0, -0.0, rnd.uniform(-0.3, 0.3)]) for _ in range(n)] for _ in range(n)])
            expected = weights.copy()
            _pairwise_reference(expected, prev, cur, params, include_self)
            apply_packet_pair(weights, prev, cur, params, include_self)
            assert weights.tobytes() == expected.tobytes(), f"case {case}"

    def test_overlapping_packets_depress_and_skip_simultaneous_spikes(self):
        prev = SpikePacket({i: 0.001 * i for i in range(10)}, arrival=0.0)
        cur = SpikePacket({i + 5: 0.001 * i for i in range(10)}, arrival=0.004)
        params = StdpParams(w_max=0.005)
        for include_self in (True, False):
            weights = np.full((16, 16), 0.004)
            expected = weights.copy()
            _pairwise_reference(expected, prev, cur, params, include_self)
            apply_packet_pair(weights, prev, cur, params, include_self)
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
            # an excluded self pair is never read, as in the scalar rule
            apply_packet_pair(weights, *packets, include_self_pairs=False)
            assert math.isnan(weights[0, 0])

    def test_rejects_non_finite_spike_times(self):
        prev = SpikePacket({i: 1e308 * (i / 8) for i in range(8)}, arrival=1e308)
        cur = SpikePacket({i: 0.001 * i for i in range(8)}, arrival=0.020)
        with pytest.raises(ValueError, match="finite"):
            apply_packet_pair(np.zeros((8, 8)), prev, cur)
