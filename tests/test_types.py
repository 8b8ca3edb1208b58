"""Constructor invariants of the shared value types."""

import math

import numpy as np
import pytest

from tempocode.inference import ObjectModel
from tempocode.types import (
    Displacement,
    LatencyParams,
    SpikePacket,
    StdpParams,
    Traversal,
    WeightMatrix,
    as_features,
)
from tempocode.world import SyntheticObject


_F = np.array([0.5, 0.5])


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpikePacket({0: 0.001, 1: 0.002}),
        lambda: SpikePacket({0: 0.0, 1: 0.0}),
        lambda: SpikePacket({0: -0.001, 1: 0.0}),
        lambda: SpikePacket({0: 0.0}, arrival=float("nan")),
        lambda: WeightMatrix(np.zeros((2, 3))),
        lambda: WeightMatrix(np.array([[np.nan]])),
        lambda: Displacement(math.inf, 0.0),
        lambda: Traversal(((_F, 0.0), (_F, 0.0))),
        lambda: Traversal(((_F, 0.1), (_F, 0.05))),
        lambda: Traversal(((np.array([0.1]), 0.0), (np.array([0.1, 0.2]), 1.0))),
        lambda: Traversal((([0.5], 0.0), ([10**400], 0.02))),  # once an OverflowError
    ],
    ids=["packet-nonzero-minimum-offset", "packet-duplicate-offsets", "packet-negative-offset", "packet-nan-arrival",
         "matrix-non-square", "matrix-nonfinite", "displacement-nonfinite", "traversal-equal-times",
         "traversal-decreasing-times", "traversal-mixed-dimensions", "traversal-integer-past-the-largest-double"],
)
def test_constructor_rejects(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: SyntheticObject("A", (np.array([0.9, 0.2]), np.array([0.2, 0.9]))),
        lambda: Traversal(((np.array([0.9, 0.2]), 0.0), (np.array([0.2, 0.9]), 0.02))),
        lambda: WeightMatrix(np.eye(2)),
        lambda: ObjectModel("A", WeightMatrix(np.eye(2))),
    ],
    ids=["synthetic-object", "traversal", "weight-matrix", "object-model"],
)
def test_array_holding_types_compare_and_hash_by_identity(build):
    # A generated __eq__ compared the arrays and raised; a generated __hash__ raised TypeError.
    x = build()
    assert x == x
    assert x != build()
    assert hash(x) == hash(x)


class TestFeatureValidation:
    def test_accepts_lists_and_arrays(self):
        assert as_features([0.1, 0.2]).tolist() == [0.1, 0.2]

    # An integer past the largest double was once numpy's OverflowError.
    @pytest.mark.parametrize("bad", [[], [float("nan")], [1.0, float("inf")], [[1.0, 2.0]], [10**400, 1.0]])
    def test_rejects_bad_inputs(self, bad):
        with pytest.raises(ValueError):
            as_features(bad)


class TestSpikePacket:
    def test_iterates_in_ascending_neuron_id_order(self):
        p = SpikePacket({3: 0.003, 1: 0.0, 0: 0.006})
        assert list(p.spikes) == [0, 1, 3]
        assert p.by_time() == [(1, 0.0), (3, 0.003), (0, 0.006)]

    def test_empty_packet_is_falsy(self):
        assert not SpikePacket({})
        assert SpikePacket({0: 0.0})


class TestPacketArrays:
    def test_ids_and_global_times_in_id_order(self):
        p = SpikePacket({3: 0.003, 1: 0.0, 0: 1.0 / 3.0}, arrival=0.1)
        ids, times = p.id_time_arrays
        assert ids.tolist() == [0, 1, 3]
        assert times.tobytes() == np.array([p.arrival + p.spikes[i] for i in (0, 1, 3)]).tobytes()

    def test_cache_is_read_only_and_invisible_to_equality_and_repr(self):
        p, q = SpikePacket({0: 0.0, 2: 0.004}, arrival=1.0), SpikePacket({0: 0.0, 2: 0.004}, arrival=1.0)
        before = repr(p)
        ids, times = p.id_time_arrays
        assert repr(p) == before and p == q
        with pytest.raises(ValueError):
            times[0] = 5.0
        with pytest.raises(ValueError):
            ids[0] = 1

    def test_empty_packet(self):
        ids, times = SpikePacket({}).id_time_arrays
        assert ids.size == times.size == 0


class TestWeightMatrix:
    def test_zeros_and_shape(self):
        w = WeightMatrix.zeros(3)
        assert w.n == 3
        assert np.all(w.w == 0.0)


class TestParams:
    def test_stdp_defaults(self):
        p = StdpParams()
        assert (p.a_plus, p.a_minus, p.tau_plus, p.tau_minus) == (0.01, 0.01, 0.020, 0.020)
        assert p.w_max is None

    @pytest.mark.parametrize("kwargs", [{"a_plus": 0}, {"tau_minus": -1}, {"tau_plus": float("nan")}, {"w_max": 0.0}])
    def test_stdp_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            StdpParams(**kwargs)

    def test_latency_params(self):
        assert LatencyParams().assumed_velocity == 1.0
        with pytest.raises(ValueError):
            LatencyParams(0.0)


class TestDisplacement:
    def test_array_and_norm(self):
        d = Displacement(3.0, 4.0)
        assert d.dz == 0.0
        assert math.hypot(d.dx, d.dy, d.dz) == 5.0
        assert (d.dx, d.dy, d.dz) == (3.0, 4.0, 0.0)


class TestTraversal:
    def test_public_constructor_checks_every_contact(self):
        good = np.array([0.5, 0.5])
        for bad in (np.array([0.5, math.inf]), np.array([math.nan, 0.5]), np.array([0.5])):
            for position in range(3):
                features = [good, good, good]
                features[position] = bad
                with pytest.raises(ValueError):
                    Traversal(tuple((f, 0.02 * k) for k, f in enumerate(features)))
        with pytest.raises(ValueError, match="contact time must be finite"):
            Traversal(((good, 0.0), (good, 0.02), (good, math.inf)))

    def test_features_stacks_the_contacts(self):
        t = Traversal(((np.array([1.0, 2.0]), 0.0), (np.array([3.0, 4.0]), 1.0)))
        assert t.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert "features" not in repr(t)

    def test_owns_its_contacts(self):
        # The contacts used to be the caller's arrays: a later write showed in contacts
        # while the stacked features kept the old values, and encoding then failed.
        a, b = np.array([0.9, 0.2, 0.1]), np.array([0.1, 0.2, 0.9])
        t = Traversal(((a, 0.0), (b, 0.02)))
        a[0] = np.nan
        assert t.contacts[0][0].tolist() == [0.9, 0.2, 0.1]
        assert t.features.tolist() == [[0.9, 0.2, 0.1], [0.1, 0.2, 0.9]]
        for block in (t.contacts[1][0], t.features):
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 99.0
        assert t.features.tolist() == [[0.9, 0.2, 0.1], [0.1, 0.2, 0.9]]

    def test_an_empty_traversal_is_constructible(self):
        t = Traversal(())
        assert len(t) == 0 and t.features.shape == (0, 0)
