"""Encoder contract and rank-order code capacity."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from tempocode.encoding import EncoderParams, _encode_block, _offsets, code_capacity_bits, encode, encode_traversal
from tempocode.rng import NoiseStream
from tempocode.types import SpikePacket, Traversal
from tempocode.world import F_CURVED, WorldParams, builtin_objects, generate_traversal

TAU = 0.010

F_S = [0.9, 0.2, 0.1]
F_C = [0.2, 0.8, 0.2]
F_E = [0.1, 0.2, 0.9]


class TestEncodeExamples:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([0.2, 0.9, 0.1, 0.7], [(1, 0.0), (3, TAU * (1 / 3)), (0, TAU * (2 / 3))]),
            # 0.1 is not strictly above the 0.1 threshold: two actives, so the second spike lands at tau/2.
            (F_S, [(0, 0.0), (1, 0.005)]),
            # The mirror contact fires another neuron first, though a sweep of either sums alike.
            (F_E, [(2, 0.0), (1, 0.005)]),
            ([0.0, 0.0, 0.0], []),
            ([-0.5, 0.1, 0.05], []),
            # Exact times, in the evaluation order the encoder fixes, tau_base * (r / n):
            # TAU * (1 / 3) and TAU / 3 differ by 1 ulp. Ties fire in ascending id.
            ([0.5, 0.5, 0.9], [(2, 0.0), (0, TAU * (1 / 3)), (1, TAU * (2 / 3))]),
            ([0.31, 0.7, 0.1, 0.31], [(1, 0.0), (0, TAU * (1 / 3)), (3, TAU * (2 / 3))]),
        ],
        ids=["docstring-vector", "smooth-strict-threshold", "edge-mirror", "all-zero", "all-subthreshold",
             "tie-break-ascending-id", "repeated-call"],
    )
    def test_examples(self, values, expected):
        assert encode(values).by_time() == expected == encode(values).by_time()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            encode([0.5, float("nan")])
        with pytest.raises(ValueError, match="integer too large for a double"):
            encode([0.5, 10**400])

    def test_arrival_stamp(self):
        assert encode(F_S, arrival=0.040).arrival == 0.040

    @pytest.mark.parametrize(
        "values, arrival, params",
        [([0.2, 0.9, 0.1, 0.7], 0.3, EncoderParams()), ([0.0, 0.0], 1.0, EncoderParams()),
         # The second spike's time passes the largest double: inf, as Python's addition gives it.
         ([0.9, 0.5], 1.5e308, EncoderParams(tau_base=1e308))],
        ids=["three-active", "silent", "time-overflows"],
    )
    def test_packet_arrays_are_built_on_first_read(self, values, arrival, params):
        packet = encode(values, params, arrival=arrival)
        assert "id_time_arrays" not in packet.__dict__
        arrays = packet.id_time_arrays
        expected = sorted(oracle.encode(values, arrival, params))
        ids, times = arrays
        assert ids.dtype == np.intp and ids.tolist() == [i for i, _ in expected]
        assert times.tobytes() == np.array([t for _, t in expected], dtype=float).tobytes()
        assert not (ids.flags.writeable or times.flags.writeable)


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


def _encode_reference(features, params=EncoderParams()):
    """The oracle's packet as {neuron id: offset}: arrival 0.0 leaves each offset as it is."""
    return dict(oracle.encode(np.asarray(features, dtype=float).tolist(), 0.0, params))


class TestEncodeMatchesReferenceRanking:
    """The encoder's ranking against the oracle's (``test_oracle`` draws the random vectors)."""

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


def _assert_block_is_encode(block, params=EncoderParams()):
    """``_encode_block`` against ``encode`` contact by contact: ids and times as bytes in the first ``counts`` slots."""
    times = [k * 0.020 for k in range(block.shape[1])]
    ids, spike_times, counts = _encode_block(block, times, params)
    for t, k in np.ndindex(counts.shape):
        packet_ids, packet_times = encode(block[t, k], params, arrival=times[k]).id_time_arrays
        order = np.argsort(packet_times, kind="stable")
        c = counts[t, k]
        assert c == packet_ids.size
        assert ids[t, k, :c].tobytes() == packet_ids[order].astype(ids.dtype).tobytes()
        assert spike_times[t, k, :c].tobytes() == packet_times[order].tobytes()
    return counts


class TestBlockEncoderTies:
    """The block encoder's default sort, and its stable fallback where two fired activations tie."""

    def test_curved_contacts_at_sigma_zero(self):
        # F_CURVED fires neurons 0 and 2 at 0.2 each: a fired tie in every traversal.
        objects = builtin_objects()
        assert F_CURVED[0] == F_CURVED[2] > EncoderParams().sparsity_threshold
        block = np.stack([generate_traversal(obj, WorldParams(), NoiseStream(1)).features for obj in objects])
        _assert_block_is_encode(block)

    @pytest.mark.parametrize("n_neurons", [3, 17, 64])
    def test_equal_activations(self, n_neurons):
        block = np.full((4, 5, n_neurons), 0.5)
        block[1, 2, ::3] = 0.7
        block[2] = np.linspace(0.0, 1.0, n_neurons).round(1)
        assert (_assert_block_is_encode(block) > 1).all()

    def test_signed_zeros_under_a_negative_threshold(self):
        # -0.0 and 0.0 both fire above -0.5 and sort as equals, so they tie; encode fires them in id order.
        row = np.array([0.0, -0.0, 0.3, -0.0, 0.0, -0.7, 0.3, -0.0] * 8)
        block = np.stack([np.stack([row, -row, row[::-1]])] * 3)
        _assert_block_is_encode(block, EncoderParams(sparsity_threshold=-0.5))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_untied_noisy_blocks(self, seed):
        # Noisy 64-neuron contacts, as a scaled training phase encodes them: no two activations tie.
        block = 0.1 + 0.3 * np.random.default_rng(seed).standard_normal((10, 20, 64))
        rows = block.reshape(-1, 64)
        fired = rows > EncoderParams().sparsity_threshold
        assert all(np.unique(row[mask]).size == mask.sum() for row, mask in zip(rows, fired))
        _assert_block_is_encode(block)


class TestSpanFloor:
    """Every span ``EncoderParams`` accepts gives each rank its own offset; a subnormal one is rejected."""

    @pytest.mark.parametrize(
        "tau_base",
        [sys.float_info.min, math.nextafter(sys.float_info.min, math.inf), 3e-308, 1e-300, TAU, 1.7e308,
         sys.float_info.max],
    )
    def test_offsets_are_distinct_at_and_above_the_floor(self, tau_base):
        EncoderParams(tau_base=tau_base)
        # numpy divides and multiplies with Python's roundings, so these are _offsets' values.
        for n in (1, 2, 3, 2048):
            assert (tau_base * (np.arange(n) / n)).tolist() == list(_offsets(tau_base, n))
        for n in range(1, 2049):
            assert (np.diff(tau_base * (np.arange(n) / n)) > 0.0).all(), n

    @pytest.mark.parametrize("tau_base", [5e-324, math.nextafter(sys.float_info.min, 0.0)])
    def test_a_subnormal_span_is_rejected(self, tau_base):
        with pytest.raises(ValueError, match=f"tau_base must be finite and at least {sys.float_info.min}"):
            EncoderParams(tau_base=tau_base)


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

    REJECTIONS = [
        ({"n_active": 0, "mode": "ordered"}, "n_active must be >= 1"),
        ({"n_active": 3, "mode": "unordered"}, "requires n_total"),
        ({"n_active": 4, "mode": "unordered", "n_total": 3}, "n_total=3 must be >= n_active=4"),
        ({"n_active": 2, "mode": "rate"}, "mode must be"),
        ({"n_active": 10**400, "mode": "ordered"}, "n_active is too large"),
        ({"n_active": 10**306, "mode": "ordered"}, "n_active is too large"),
        ({"n_active": 3, "mode": "unordered", "n_total": 10**400}, "n_total is too large"),
        # Counts that are not integers: int() once truncated 2.5 to 2 and read "3" as 3.
        ({"n_active": 2.5, "mode": "ordered"}, "n_active must be an integer, got 2.5"),
        ({"n_active": 2.9, "mode": "unordered", "n_total": 4.5}, "n_active must be an integer, got 2.9"),
        ({"n_active": 2, "mode": "unordered", "n_total": 4.5}, "n_total must be an integer, got 4.5"),
        ({"n_active": "3", "mode": "ordered"}, "n_active must be an integer, got '3'"),
        ({"n_active": np.float64(3.0), "mode": "ordered"}, "n_active must be an integer"),
        # bool is Integral, and True once counted as one active neuron.
        ({"n_active": True, "mode": "ordered"}, "n_active must be an integer, got True"),
        ({"n_active": 1, "mode": "unordered", "n_total": True}, "n_total must be an integer, got True"),
    ]

    @pytest.mark.parametrize("kwargs, message", REJECTIONS, ids=[f"kwargs{k}" for k in range(len(REJECTIONS))])
    def test_rejections(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            code_capacity_bits(**kwargs)

    def test_numpy_integer_counts(self):
        assert code_capacity_bits(np.int64(3)) == code_capacity_bits(3)
        unordered = code_capacity_bits(np.int32(2), "unordered", n_total=np.uint8(4))
        assert unordered == code_capacity_bits(2, "unordered", n_total=4)

    def test_encoder_params_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(tau_base=0.0)
        with pytest.raises(ValueError):
            EncoderParams(sparsity_threshold=float("inf"))


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
            silent += not packet
        assert silent > 0

    @pytest.mark.parametrize("arrival", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("values", [[0.9, 0.5, 0.3], [0.0, 0.0, 0.0]])
    def test_rejects_non_finite_arrival(self, arrival, values):
        with pytest.raises(ValueError, match="arrival time must be finite"):
            encode(values, arrival=arrival)
