"""Encoder contract and rank-order code capacity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempocode.encoding import EncoderParams, code_capacity_bits, encode, encode_traversal
from tempocode.types import SpikePacket, Traversal

TAU = 0.010

F_S = [0.9, 0.2, 0.1]
F_C = [0.2, 0.8, 0.2]
F_E = [0.1, 0.2, 0.9]


class TestEncodeExamples:
    def test_docstring_vector(self):
        p = encode([0.2, 0.9, 0.1, 0.7])
        assert set(p.spikes) == {0, 1, 3}
        assert p.spikes[1] == 0.0
        assert abs(p.spikes[3] - TAU / 3) < 1e-12
        assert abs(p.spikes[0] - 2 * TAU / 3) < 1e-12

    def test_smooth_contact_strict_threshold(self):
        # 0.1 is not strictly above the 0.1 threshold: two actives, so the
        # second spike lands at tau/2
        p = encode(F_S)
        assert p.spikes == {0: 0.0, 1: 0.005}

    def test_all_subthreshold_gives_silent_packet(self):
        assert encode([0.0, 0.0, 0.0]).spikes == {}
        assert encode([-0.5, 0.1, 0.05]).spikes == {}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            encode([0.5, float("nan")])

    def test_tie_break_ascending_id(self):
        # Exact times, in the evaluation order the encoder fixes,
        # tau_base * (r / n): TAU * (1 / 3) and TAU / 3 differ by 1 ulp.
        p = encode([0.5, 0.5, 0.9])
        assert p.by_time() == [(2, 0.0), (0, TAU * (1 / 3)), (1, TAU * (2 / 3))]

    def test_arrival_stamp(self):
        assert encode(F_S, arrival=0.040).arrival == 0.040


class TestEncodeProperties:
    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=12)
    )
    def test_first_spike_zero_and_span(self, values):
        p = encode(values)
        if p:
            times = list(p.spikes.values())
            assert min(times) == 0.0
            assert max(times) < TAU

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=12)
    )
    def test_rank_monotonicity(self, values):
        arr = np.asarray(values)
        p = encode(values)
        for i in p.spikes:
            for j in p.spikes:
                if arr[i] > arr[j]:
                    assert p.spikes[i] < p.spikes[j]

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=2, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_permutation_symmetry(self, values, rnd):
        perm = list(range(len(values)))
        rnd.shuffle(perm)
        base = encode(values)
        permuted = encode([values[perm[i]] for i in range(len(values))])
        # same multiset of spike times; active neurons map through the permutation
        assert sorted(permuted.spikes.values()) == sorted(base.spikes.values())
        assert set(permuted.spikes) == {i for i in range(len(values)) if perm[i] in base.spikes}
        active_vals = [values[nid] for nid in base.spikes]
        if len(set(active_vals)) == len(active_vals):  # tie-breaks are id-based, so exact mapping needs distinct values
            for i in permuted.spikes:
                assert permuted.spikes[i] == base.spikes[perm[i]]

    def test_idempotent_determinism(self):
        vals = [0.31, 0.7, 0.1, 0.31]
        assert encode(vals).spikes == encode(vals).spikes

    def test_order_sensitivity_vs_dense_sum(self):
        # the two traversal endpoints fire different neurons first, yet a
        # 3-contact sweep sums identically in the dense view
        first_a = encode(F_S).first_neuron()
        first_b = encode(F_E).first_neuron()
        assert first_a == 0
        assert first_b == 2
        assert first_a != first_b
        sum_a = np.sum(np.array([F_S, F_C, F_E]), axis=0)
        sum_b = np.sum(np.array([F_E, F_C, F_S]), axis=0)
        assert np.array_equal(sum_a, sum_b)


def _encode_reference(features, params=EncoderParams(), arrival=0.0):
    """The earlier ranking: numpy scalars under a (-activation, id) key."""
    arr = np.asarray(features, dtype=float)
    active = [i for i in range(arr.size) if arr[i] > params.sparsity_threshold]
    ranked = sorted(active, key=lambda i: (-arr[i], i))
    n = len(ranked)
    return {nid: params.tau_base * (rank / n) for rank, nid in enumerate(ranked)}


class TestEncodeMatchesReferenceRanking:
    """Ranking over plain floats against the lambda-key ranking, compared as bytes."""

    @pytest.mark.parametrize("n", [3, 64])
    def test_random_vectors_with_ties_and_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        pool = np.array([0.0, -0.0, 0.1, 0.5, 0.9, -0.3])
        thresholds = (0.1, 0.0, -0.0, -0.2)
        tied = 0
        for case in range(300):
            kind = case % 3
            if kind == 0:
                values = rng.choice(pool, n)  # many repeats, mixed 0.0 / -0.0
            elif kind == 1:
                values = np.round(rng.uniform(-1, 1, n), 1)
            else:
                values = rng.uniform(-1, 1, n)
            params = EncoderParams(sparsity_threshold=thresholds[case % len(thresholds)])
            packet = encode(values, params, arrival=0.5)
            expected = _encode_reference(values, params)
            assert list(packet.spikes) == sorted(expected), f"case {case}"
            assert packet.by_time() == sorted(expected.items(), key=lambda kv: (kv[1], kv[0]))
            got_times = np.array([packet.spikes[i] for i in sorted(expected)])
            want_times = np.array([expected[i] for i in sorted(expected)])
            assert got_times.tobytes() == want_times.tobytes(), f"case {case}"
            tied += len(values) != len(set(values.tolist()))
        assert tied > 0

    @pytest.mark.parametrize("n", [3, 64])
    def test_all_silent_input(self, n):
        for values in (np.zeros(n), np.full(n, -0.0), np.full(n, 0.1)):
            assert encode(values).spikes == {} == _encode_reference(values)

    def test_signed_zero_ties_keep_ascending_id(self):
        params = EncoderParams(sparsity_threshold=-0.5)
        values = [-0.0, 0.0, 0.2, -0.0, 0.0]
        packet = encode(values, params)
        assert [nid for nid, _ in packet.by_time()] == [2, 0, 1, 3, 4]
        assert packet.spikes == _encode_reference(values, params)


class TestEncodeTraversal:
    def test_stamps_contact_times(self):
        trav = Traversal(((np.array(F_S), 0.0), (np.array(F_C), 0.020)))
        packets = encode_traversal(trav)
        assert [p.arrival for p in packets] == [0.0, 0.020]

    def test_rejects_overlapping_packets(self):
        trav = Traversal(((np.array(F_S), 0.0), (np.array(F_C), 0.005)))
        with pytest.raises(ValueError):
            encode_traversal(trav)


class TestCodeCapacity:
    def test_ordered_matches_enumeration(self):
        # independent oracle: count the orderings explicitly
        for n in range(1, 7):
            n_orderings = len(list(itertools.permutations(range(n))))
            assert code_capacity_bits(n, "ordered") == pytest.approx(math.log2(n_orderings), abs=1e-12)

    def test_unordered_matches_enumeration(self):
        for n_total in range(1, 9):
            for k in range(1, n_total + 1):
                n_choices = len(list(itertools.combinations(range(n_total), k)))
                assert code_capacity_bits(k, "unordered", n_total=n_total) == pytest.approx(
                    math.log2(n_choices), abs=1e-9
                )

    def test_spot_values(self):
        assert code_capacity_bits(3, "ordered") == pytest.approx(2.584962500721156, abs=1e-12)
        assert code_capacity_bits(1, "ordered") == 0.0
        assert code_capacity_bits(3, "unordered", n_total=3) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_active": 0, "mode": "ordered"},
            {"n_active": 3, "mode": "unordered"},
            {"n_active": 4, "mode": "unordered", "n_total": 3},
            {"n_active": 2, "mode": "rate"},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            code_capacity_bits(**kwargs)

    def test_encoder_params_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(tau_base=0.0)
        with pytest.raises(ValueError):
            EncoderParams(sparsity_threshold=float("inf"))


def _first_neuron_by_min_key(packet):
    """The earlier leading-neuron rule: the least (offset, id)."""
    if not packet.spikes:
        return None
    return min(packet.spikes, key=lambda nid: (packet.spikes[nid], nid))


class TestEncodeBuildsValidPackets:
    """``encode``'s trusted construction against the fully checked public constructor."""

    @pytest.mark.parametrize("n", [3, 64])
    def test_matches_public_constructor(self, n):
        rng = np.random.default_rng(100 + n)
        pool = np.array([0.0, -0.0, 0.1, 0.5, 0.9, -0.3])
        silent = 0
        for case in range(300):
            values = rng.choice(pool, n) if case % 2 else rng.uniform(-1, 1, n)
            if case % 50 == 0:
                values = np.full(n, -0.0)
            params = EncoderParams(sparsity_threshold=(0.1, 0.0, -0.0, -0.5)[case % 4])
            packet = encode(values, params, arrival=0.25 * case)
            rebuilt = SpikePacket(dict(packet.spikes), arrival=packet.arrival)
            assert packet == rebuilt
            assert list(packet.spikes) == list(rebuilt.spikes)
            assert all(type(nid) is int and type(t) is float for nid, t in packet.spikes.items())
            times = np.array(list(packet.spikes.values()))
            assert times.tobytes() == np.array(list(rebuilt.spikes.values())).tobytes()
            assert packet.first_neuron() == _first_neuron_by_min_key(packet)
            silent += not packet
        assert silent > 0

    def test_first_neuron_with_signed_zero_offset(self):
        packet = SpikePacket({3: 0.002, 1: -0.0, 5: 0.001})
        assert packet.first_neuron() == _first_neuron_by_min_key(packet) == 1

    def test_subnormal_tau_base_rounds_offsets_together(self):
        params = EncoderParams(tau_base=5e-324)
        with pytest.raises(ValueError, match="pairwise distinct"):
            encode([0.9, 0.5, 0.3], params)

    @pytest.mark.parametrize("arrival", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("values", [[0.9, 0.5, 0.3], [0.0, 0.0, 0.0]])
    def test_rejects_non_finite_arrival(self, arrival, values):
        with pytest.raises(ValueError, match="arrival time must be finite"):
            encode(values, arrival=arrival)
