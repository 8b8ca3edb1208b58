"""Dense accumulation baseline: centroids and their blindness to order."""

import itertools

import numpy as np
import pytest

from tempocode.baseline import centroid_distances, dense_classify, dense_train
from tempocode.rng import NoiseStream
from tempocode.types import Traversal
from tempocode.world import WorldParams, discrimination_pair, generate_traversal


def _noiseless(obj):
    return Traversal(tuple((c, 0.020 * k) for k, c in enumerate(obj.contacts)), label=obj.label)


class TestDenseTrain:
    def test_noiseless_centroid(self):
        obj_a = discrimination_pair()[0]
        centroids = dense_train([_noiseless(obj_a)] * 5)
        assert len(centroids) == 1
        label, centroid = centroids[0]
        assert label == "A"
        np.testing.assert_allclose(centroid, [1.2, 1.2, 1.2], atol=1e-12)

    def test_degenerate_pair_centroids_identical(self):
        obj_a, obj_b = discrimination_pair()
        centroids = dict(dense_train([_noiseless(obj_a), _noiseless(obj_b)]))
        assert np.array_equal(centroids["A"], centroids["B"])

    def test_single_trial_centroid_is_its_sum(self):
        obj_b = discrimination_pair()[1]
        trav = generate_traversal(obj_b, WorldParams(noise_sigma=0.2), NoiseStream(3, 0, 1, 0))
        _, centroid = dense_train([trav])[0]
        assert np.array_equal(centroid, trav.feature_sum())

    def test_centroid_is_mean_of_sums(self):
        obj_a = discrimination_pair()[0]
        params = WorldParams(noise_sigma=0.1)
        travs = [generate_traversal(obj_a, params, NoiseStream(11, 0, 0, t)) for t in range(7)]
        _, centroid = dense_train(travs)[0]
        np.testing.assert_allclose(centroid, np.mean([t.feature_sum() for t in travs], axis=0), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dense_train([])
        with pytest.raises(ValueError, match="cannot sum an empty traversal"):
            dense_train([_noiseless(discrimination_pair()[0]), Traversal((), label="A")])

    @pytest.mark.parametrize("n_neurons", [1, 3, 64])
    def test_centroids_match_per_traversal_sums_as_bytes(self, n_neurons):
        """Centroids on classes of mixed lengths are the mean of per-traversal sums, to the bit."""
        rng = np.random.default_rng(n_neurons)
        choices = np.array([-0.0, 0.0, 1e16, -1e16, 1.0, 1e-300])
        for case in range(40):
            traversals = []
            for _ in range(int(rng.integers(1, 12))):
                length = int(rng.choice([1, 2, 9, 20]))
                # magnitudes far apart make any other summation order show in the bits
                contacts = np.where(rng.random((length, n_neurons)) < 0.5,
                                    rng.choice(choices, (length, n_neurons)), rng.normal(size=(length, n_neurons)))
                traversals.append(Traversal(tuple((row, 0.020 * k) for k, row in enumerate(contacts)),
                                            label=str(rng.integers(0, 3))))
            expected = {}
            for trav in traversals:
                expected.setdefault(trav.label, []).append(trav.feature_sum())
            got = dense_train(traversals)
            assert [label for label, _ in got] == list(expected), f"case {case}"
            for label, centroid in got:
                assert centroid.tobytes() == np.mean(np.stack(expected[label]), axis=0).tobytes(), f"case {case}"


class TestDenseClassify:
    def test_degenerate_tie_goes_to_first_class(self):
        obj_a, obj_b = discrimination_pair()
        centroids = dense_train([_noiseless(obj_a), _noiseless(obj_b)])
        assert dense_classify(_noiseless(obj_a), centroids) == "A"
        assert dense_classify(_noiseless(obj_b), centroids) == "A"  # ties break to class 0: chance by construction

    def test_exact_match_wins(self):
        centroids = [("near", np.array([1.0, 1.0])), ("far", np.array([5.0, 5.0]))]
        trav = Traversal(((np.array([0.4, 0.4]), 0.0), (np.array([0.6, 0.6]), 0.020)), label="near")
        assert dense_classify(trav, centroids) == "near"

    def test_order_blindness_exact(self):
        obj_a = discrimination_pair()[0]
        trav = generate_traversal(obj_a, WorldParams(noise_sigma=0.3), NoiseStream(21, 0, 0, 5))
        centroids = [("p", np.array([1.0, 1.1, 0.9])), ("q", np.array([1.3, 1.2, 1.4]))]
        base = dense_classify(trav, centroids)
        contacts = list(trav.contacts)
        for perm in itertools.permutations(range(len(contacts))):
            shuffled = Traversal(
                tuple((contacts[p][0], 0.020 * k) for k, p in enumerate(perm)), label=trav.label
            )
            assert dense_classify(shuffled, centroids) == base

    def test_empty_centroids_rejected(self):
        with pytest.raises(ValueError):
            dense_classify(_noiseless(discrimination_pair()[0]), [])


class TestCentroidDistances:
    """The one-pass distances against the per-centroid sum they replaced."""

    @staticmethod
    def _reference(total, centroids):
        distances = [float(np.sum((total - c) ** 2)) for _, c in centroids]
        return distances, centroids[int(np.argmin(distances))][0]

    @pytest.mark.parametrize("n_neurons", [3, 64, 100])
    def test_matches_per_centroid_sum_bytes_and_labels(self, n_neurons):
        rng = np.random.default_rng(n_neurons)
        ties = 0
        for case in range(300):
            scale = 10.0 ** rng.integers(-8, 9)
            contacts = rng.normal(size=(int(rng.integers(1, 6)), n_neurons)) * scale
            trav = Traversal(tuple((row, 0.020 * k) for k, row in enumerate(contacts)))
            arrays = list(rng.normal(size=(int(rng.integers(1, 9)), n_neurons)) * scale)
            tied = None
            if len(arrays) > 1 and case % 3 == 0:
                # Two copies of the nearest centroid: the lower index must win the exact tie.
                tied, twin = sorted(rng.choice(len(arrays), size=2, replace=False).tolist())
                arrays[tied] = trav.feature_sum() + 1e-3 * scale * rng.normal(size=n_neurons)
                arrays[twin] = arrays[tied].copy()
            centroids = [(f"c{i}", c) for i, c in enumerate(arrays)]
            ref_distances, ref_label = self._reference(trav.feature_sum(), centroids)
            distances = centroid_distances(trav.feature_sum(), arrays)
            assert distances.tobytes() == np.array(ref_distances).tobytes()
            assert dense_classify(trav, centroids) == ref_label
            if tied is not None:
                assert ref_label == f"c{tied}"
                ties += 1
        assert ties > 50

    def test_tie_goes_to_lowest_index(self):
        centroids = [("far", np.array([9.0, 9.0])), ("first", np.array([1.0, 0.0])), ("second", np.array([0.0, 1.0]))]
        trav = Traversal(((np.array([0.0, 0.0]), 0.0),))
        assert dense_classify(trav, centroids) == "first"
