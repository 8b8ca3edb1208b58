"""Synthetic objects and seeded traversal generation."""

import json

import numpy as np
import pytest

from tempocode.rng import NoiseStream
from tempocode.world import (
    SyntheticObject,
    WorldParams,
    builtin_objects,
    complexity_triple,
    discrimination_pair,
    generate_traversal,
    load_objects,
)


class TestBuiltinObjects:
    def test_catalogue(self):
        objs = {o.label: o for o in builtin_objects()}
        assert set(objs) == {"A", "B", "uniform", "moderate", "complex"}
        np.testing.assert_array_equal(objs["A"].contacts[0], [0.9, 0.2, 0.1])
        np.testing.assert_array_equal(objs["A"].contacts[1], [0.2, 0.8, 0.2])
        np.testing.assert_array_equal(objs["A"].contacts[2], [0.1, 0.2, 0.9])

    def test_b_is_reverse_of_a(self):
        a, b = discrimination_pair()
        for ca, cb in zip(a.contacts, reversed(b.contacts)):
            np.testing.assert_array_equal(ca, cb)

    def test_dense_sum_degeneracy(self):
        a, b = discrimination_pair()
        sum_a = np.sum(np.stack(a.contacts), axis=0)
        sum_b = np.sum(np.stack(b.contacts), axis=0)
        assert np.array_equal(sum_a, sum_b)
        np.testing.assert_allclose(sum_a, [1.2, 1.2, 1.2], atol=1e-12)

    def test_complexity_triple_structure(self):
        uniform, moderate, complex_ = complexity_triple()
        assert uniform.label == "uniform" and len(set(map(tuple, uniform.contacts))) == 1
        assert moderate.label == "moderate"
        np.testing.assert_array_equal(moderate.contacts[0], moderate.contacts[2])
        assert complex_.label == "complex"
        assert len(set(map(tuple, complex_.contacts))) == 3

    def test_object_validation(self):
        with pytest.raises(ValueError):
            SyntheticObject("empty", ())
        with pytest.raises(ValueError):
            SyntheticObject("ragged", (np.array([0.1]), np.array([0.1, 0.2])))


class TestGenerateTraversal:
    def test_zero_noise_is_canonical(self):
        obj = discrimination_pair()[0]
        trav = generate_traversal(obj, WorldParams(noise_sigma=0.0, seed=5), NoiseStream(5, 0, 0, 0))
        for (features, _), canonical in zip(trav.contacts, obj.contacts):
            assert np.array_equal(features, canonical)

    def test_contact_times_arithmetic(self):
        obj = discrimination_pair()[0]
        trav = generate_traversal(obj, WorldParams(seed=5), NoiseStream(5, 0, 0, 0))
        assert [t for _, t in trav.contacts] == [0.0, 0.020, 0.040]
        assert trav.motor_direction == 0.0
        assert trav.label == "A"

    def test_bit_identical_given_same_stream(self):
        obj = discrimination_pair()[1]
        params = WorldParams(noise_sigma=0.3, seed=9)
        t1 = generate_traversal(obj, params, NoiseStream(9, 0, 1, 7))
        t2 = generate_traversal(obj, params, NoiseStream(9, 0, 1, 7))
        for (f1, _), (f2, _) in zip(t1.contacts, t2.contacts):
            assert np.array_equal(f1, f2)

    def test_noise_sample_std(self):
        obj = discrimination_pair()[0]
        params = WorldParams(noise_sigma=0.05, seed=77)
        deviations = []
        for trial in range(1200):  # 1200 trials x 9 components > 1e4 draws
            trav = generate_traversal(obj, params, NoiseStream(77, 0, 0, trial))
            for (features, _), canonical in zip(trav.contacts, obj.contacts):
                deviations.extend(features - canonical)
        std = np.std(deviations)
        assert abs(std - 0.05) / 0.05 < 0.05

    def test_trial_streams_uncorrelated(self):
        obj = discrimination_pair()[0]
        params = WorldParams(noise_sigma=1.0, seed=13)

        def devs(trial):
            trav = generate_traversal(obj, params, NoiseStream(13, 0, 0, trial))
            return np.concatenate([f - c for (f, _), c in zip(trav.contacts, obj.contacts)])

        a = np.concatenate([devs(2 * k) for k in range(1200)])
        b = np.concatenate([devs(2 * k + 1) for k in range(1200)])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WorldParams(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            WorldParams(inter_contact_interval=0.0)
        with pytest.raises(ValueError):
            WorldParams(velocity=-1.0)


class TestLoadObjects:
    def test_list_and_single(self, tmp_path):
        path = tmp_path / "objects.json"
        path.write_text(json.dumps([
            {"label": "x", "contacts": [[0.9, 0.1], [0.1, 0.9]]},
            {"label": "y", "contacts": [[0.1, 0.9], [0.9, 0.1]]},
        ]))
        objs = load_objects(path)
        assert [o.label for o in objs] == ["x", "y"]
        assert objs[0].n_neurons == 2

        single = tmp_path / "one.json"
        single.write_text(json.dumps({"label": "solo", "contacts": [[0.5]]}))
        assert [o.label for o in load_objects(single)] == ["solo"]

    def test_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"label": "x", "contacts": [[0.9]], "extra": 1}]))
        with pytest.raises(ValueError):
            load_objects(path)
        path.write_text(json.dumps([]))
        with pytest.raises(ValueError):
            load_objects(path)

    def test_rejects_duplicate_labels(self, tmp_path):
        # two objects labelled A in opposite orders would score 100% on both classifiers
        path = tmp_path / "dup.json"
        path.write_text(json.dumps([
            {"label": "A", "contacts": [[0.9, 0.1], [0.1, 0.9]]},
            {"label": "A", "contacts": [[0.1, 0.9], [0.9, 0.1]]},
        ]))
        with pytest.raises(ValueError, match="'A'"):
            load_objects(path)

    def test_rejects_mixed_dimensions(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([
            {"label": "x", "contacts": [[0.9, 0.1]]},
            {"label": "y", "contacts": [[0.9]]},
        ]))
        with pytest.raises(ValueError):
            load_objects(path)
