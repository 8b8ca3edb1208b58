"""Dense accumulation baseline: centroids and their blindness to order."""

import itertools

import numpy as np
import pytest

from tempocode.baseline import dense_classify, dense_train
from tempocode.rng import NoiseStream
from tempocode.types import Traversal
from tempocode.world import WorldParams, discrimination_pair, generate_traversal


def _noiseless(obj):
    return Traversal(tuple((c, 0.020 * k) for k, c in enumerate(obj.contacts)), label=obj.label)


class TestDenseTrain:
    @pytest.mark.parametrize("index", [0, 1])
    def test_noiseless_centroid(self, index):
        # A and B hold the same contacts in reverse order: their centroids are equal, to the bit.
        obj_a, obj = discrimination_pair()[0], discrimination_pair()[index]
        ((label, centroid),) = dense_train([_noiseless(obj)] * 5)
        assert label == obj.label
        assert centroid.tobytes() == dense_train([_noiseless(obj_a)])[0][1].tobytes()
        np.testing.assert_allclose(centroid, [1.2, 1.2, 1.2], atol=1e-12)

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


class TestOverflow:
    def test_a_centroid_past_the_largest_double_raises(self):
        huge = Traversal(((np.array([1e308, 1.0]), 0.0), (np.array([1e308, 1.0]), 0.020)), label="huge")
        with pytest.raises(ValueError, match="the dense baseline overflows: the centroid of 'huge' is not finite"):
            dense_train([huge])

    def test_a_distance_past_the_largest_double_raises(self):
        # The sum is finite, but its squared distance is not: every class would tie at inf.
        centroids = [("a", np.array([0.0, 0.0])), ("b", np.array([1.0, 1.0]))]
        trav = Traversal(((np.array([1e200, 0.0]), 0.0),))
        with pytest.raises(ValueError, match="the dense baseline overflows: a distance to a centroid is not finite"):
            dense_classify(trav, centroids)


class TestCentroidDistances:
    def test_tie_goes_to_lowest_index(self):
        centroids = [("far", np.array([9.0, 9.0])), ("first", np.array([1.0, 0.0])), ("second", np.array([0.0, 1.0]))]
        trav = Traversal(((np.array([0.0, 0.0]), 0.0),))
        assert dense_classify(trav, centroids) == "first"
