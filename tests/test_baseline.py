"""Dense accumulation baseline: centroids and their blindness to order."""

import itertools

import numpy as np
import pytest

import oracle
from tempocode.baseline import _nearest, _sums, dense_classify, dense_train
from tempocode.rng import NoiseStream
from tempocode.types import Traversal
from tempocode.world import WorldParams, discrimination_pair, generate_feature_block, generate_traversal


def _noiseless(obj):
    return Traversal(tuple((c, 0.020 * k) for k, c in enumerate(obj.contacts)), label=obj.label)


def _block(obj, trials=1):
    """``trials`` noiseless sweeps of ``obj`` as one (trials, contacts, neurons) block."""
    return np.stack([obj.features] * trials)


class TestDenseTrain:
    @pytest.mark.parametrize("index", [0, 1])
    def test_noiseless_centroid(self, index):
        # A and B hold the same contacts in reverse order: their centroids are equal, to the bit.
        obj_a, obj = discrimination_pair()[0], discrimination_pair()[index]
        ((label, centroid),) = dense_train([(obj.label, _block(obj, 5))])
        assert label == obj.label
        assert centroid.tobytes() == dense_train([("A", _block(obj_a))])[0][1].tobytes()
        np.testing.assert_allclose(centroid, [1.2, 1.2, 1.2], atol=1e-12)

    def test_single_trial_centroid_is_its_sum(self):
        obj_b = discrimination_pair()[1]
        block = generate_feature_block(obj_b, WorldParams(noise_sigma=0.2), NoiseStream(3, 0, 1), 1)
        _, centroid = dense_train([("B", block)])[0]
        assert centroid.tobytes() == np.array(oracle.dense_sum(block[0].tolist())).tobytes()

    def test_centroid_is_mean_of_sums(self):
        block = generate_feature_block(discrimination_pair()[0], WorldParams(noise_sigma=0.1), NoiseStream(11, 0, 0), 7)
        _, centroid = dense_train([("A", block)])[0]
        sums = [oracle.dense_sum(trial.tolist()) for trial in block]
        np.testing.assert_allclose(centroid, np.mean(sums, axis=0), atol=1e-15)

    def test_classes_keep_their_order_and_their_own_contact_counts(self):
        short, long = np.ones((2, 1, 3)), np.full((3, 4, 3), 0.5)
        centroids = dense_train([("short", short), ("long", long)])
        assert [(label, c.tolist()) for label, c in centroids] == [("short", [1.0] * 3), ("long", [2.0] * 3)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one class"):
            dense_train([])

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 3), (3, 3)], ids=["no-trials", "no-contacts", "2-d"])
    def test_a_class_without_trials_or_contacts_rejected(self, shape):
        with pytest.raises(ValueError, match=r"class 'B' has no \(trials, contacts, neurons\) block to sum"):
            dense_train([("A", np.ones((1, 3, 3))), ("B", np.ones(shape))])

    def test_a_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="class 'A' is given more than once"):
            dense_train([("A", np.ones((1, 3, 3))), ("B", np.ones((1, 3, 3))), ("A", np.ones((2, 3, 3)))])

    def test_a_block_of_another_neuron_count_rejected(self):
        # Once numpy's broadcast error; now the message names both classes.
        with pytest.raises(ValueError, match="class 'B' has 4 neurons but 'A' has 3"):
            dense_train([("A", np.ones((1, 3, 3))), ("B", np.ones((1, 3, 4)))])


class TestDenseClassify:
    def test_degenerate_tie_goes_to_first_class(self):
        obj_a, obj_b = discrimination_pair()
        centroids = dense_train([("A", _block(obj_a)), ("B", _block(obj_b))])
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

    def test_an_empty_traversal_rejected(self):
        with pytest.raises(ValueError, match="cannot sum an empty traversal"):
            dense_classify(Traversal((), label="A"), [("A", np.array([1.0]))])

    def test_is_the_block_classifier_on_each_trial(self):
        # Each trial of a block is summed and classified on its own: as a one-trial block, and so as a traversal.
        obj_a, obj_b = discrimination_pair()
        params = WorldParams(noise_sigma=0.3)
        centroids = dense_train([(obj.label, generate_feature_block(obj, params, NoiseStream(5, 0, o), 4))
                                 for o, obj in enumerate((obj_a, obj_b))])
        block = generate_feature_block(obj_a, params, NoiseStream(5, 1, 0), 30)
        picks = _nearest(block, centroids)
        assert len(set(picks.tolist())) == 2  # both classes picked: the test can tell a wrong pick
        sums = _sums(block)
        for t, (trial, pick) in enumerate(zip(block, picks)):
            assert _sums(trial[None]).tobytes() == sums[t : t + 1].tobytes()
            trav = Traversal(tuple((row, 0.020 * k) for k, row in enumerate(trial)))
            assert dense_classify(trav, centroids) == centroids[pick][0]


class TestOverflow:
    def test_a_centroid_past_the_largest_double_raises(self):
        huge = np.array([[[1e308, 1.0], [1e308, 1.0]]])
        with pytest.raises(ValueError, match="the dense baseline overflows: the centroid of 'huge' is not finite"):
            dense_train([("huge", huge)])

    def test_a_mean_of_finite_sums_past_the_largest_double_raises(self):
        # Each trial's sum is finite; their mean's sum is not. A RuntimeWarning fails this test.
        huge = np.array([[[1e308, 1.0]], [[1e308, 1.0]]])
        with pytest.raises(ValueError, match="the centroid of 'huge' is not finite"):
            dense_train([("huge", huge)])

    @pytest.mark.parametrize("contacts", [[[1e200, 0.0]], [[1e308, 0.0], [1e308, 0.0]]], ids=["distance", "sum"])
    def test_a_distance_past_the_largest_double_raises(self, contacts):
        # The sum is finite, but its squared distance is not, or the sum itself overflows: every class would
        # tie at inf. A RuntimeWarning fails this test.
        centroids = [("a", np.array([0.0, 0.0])), ("b", np.array([1.0, 1.0]))]
        trav = Traversal(tuple((np.array(c), 0.020 * k) for k, c in enumerate(contacts)))
        with pytest.raises(ValueError, match="the dense baseline overflows: a distance to a centroid is not finite"):
            dense_classify(trav, centroids)


class TestCentroidDistances:
    def test_tie_goes_to_lowest_index(self):
        centroids = [("far", np.array([9.0, 9.0])), ("first", np.array([1.0, 0.0])), ("second", np.array([0.0, 1.0]))]
        trav = Traversal(((np.array([0.0, 0.0]), 0.0),))
        assert dense_classify(trav, centroids) == "first"
