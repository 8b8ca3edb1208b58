"""Synthetic objects and seeded traversal generation."""

import json
from unittest import mock

import numpy as np
import pytest

import oracle
from tempocode import rng
from tempocode.rng import NoiseStream
from tempocode.types import Traversal
from tempocode.world import (
    SyntheticObject,
    WorldParams,
    builtin_objects,
    complexity_triple,
    discrimination_pair,
    generate_feature_block,
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
        # Contacts of zero neurons would give no weight matrix to train and no traversal to build.
        with pytest.raises(ValueError, match="object 'hollow' has contacts of zero neurons"):
            SyntheticObject("hollow", ((), ()))

    def test_owns_its_contacts(self):
        a, b = np.array([0.9, 0.2, 0.1]), np.array([0.1, 0.2, 0.9])
        obj = SyntheticObject("x", (a, b))
        a[0] = np.nan
        assert obj.contacts[0].tolist() == [0.9, 0.2, 0.1]
        assert obj.features.tolist() == [[0.9, 0.2, 0.1], [0.1, 0.2, 0.9]]
        for contact in (*obj.contacts, obj.features):
            with pytest.raises(ValueError, match="read-only"):
                contact[0] = 99.0
        assert [c.tolist() for c in generate_traversal(obj, WorldParams(), NoiseStream(1)).features] == [
            [0.9, 0.2, 0.1],
            [0.1, 0.2, 0.9],
        ]


_MIXED = SyntheticObject("m", (np.array([0.9, -0.0, 0.1]), np.array([0.0, 0.8, 0.8]), np.array([1e300, 2.0, 0.5])))


class TestGenerateTraversal:
    @pytest.mark.parametrize(
        "obj, sigma, interval",
        [(_MIXED, 0.0, 0.015), (_MIXED, 0.3, 0.015), (discrimination_pair()[0], 0.0, 0.020),
         (discrimination_pair()[0], 0.05, 0.020), (discrimination_pair()[1], 0.3, 0.020)],
        ids=["mixed-sigma0", "mixed-sigma0.3", "A-zero-noise", "A-sigma0.05", "B-sigma0.3"],
    )
    def test_equals_the_checked_public_build(self, obj, sigma, interval):
        # The oracle's rows and times, built as the public Traversal would be; the same stream gives the same bits.
        params = WorldParams(noise_sigma=sigma, inter_contact_interval=interval)
        trav = generate_traversal(obj, params, NoiseStream(3, 0, 0, 1))
        rows, times = oracle.traversal(obj.features.tolist(), sigma, interval, oracle.derive_seed(3, 0, 0, 1))
        values = np.array(rows)
        public = Traversal(tuple(zip(values, times)))
        assert len(trav) == len(public)
        assert [t for _, t in trav.contacts] == [k * interval for k in range(len(obj.contacts))]
        for (f, t), (pf, pt) in zip(trav.contacts, public.contacts):
            assert (f.tobytes(), t) == (pf.tobytes(), pt) and type(t) is float
        assert trav.features.tobytes() == public.features.tobytes() == values.tobytes()
        assert sigma > 0 or trav.features.tobytes() == obj.features.tobytes()
        assert generate_traversal(obj, params, NoiseStream(3, 0, 0, 1)).features.tobytes() == values.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_contacts_are_read_only(self, sigma):
        obj = discrimination_pair()[0]
        trav = generate_traversal(obj, WorldParams(noise_sigma=sigma), NoiseStream(4, 0, 0, 2))
        before = trav.features.tobytes()
        for block in (trav.features, trav.contacts[0][0], obj.features):
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 99.0
        assert trav.features.tobytes() == before == np.stack([f for f, _ in trav.contacts]).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_noise_still_raises_non_finite_activations(self):
        # The overflow is not warned of: the error names the spoilt contact instead.
        obj = SyntheticObject("huge", (np.array([0.5, 1.7e308, 0.5]), np.array([1.7e308, 0.5, 1.7e308])))
        params = WorldParams(noise_sigma=1e308)
        with pytest.raises(ValueError, match="feature vector contains non-finite activations"):
            for trial in range(4):  # some draw pushes a component past the largest double
                generate_traversal(obj, params, NoiseStream(1, 0, 0, trial))
        with pytest.raises(ValueError, match="feature vector contains non-finite activations"):
            generate_traversal(discrimination_pair()[0], params, NoiseStream(1))

    def test_overflowing_contact_time_still_raises(self):
        obj = SyntheticObject("long", tuple(np.array([0.5]) for _ in range(3)))
        with pytest.raises(ValueError, match="contact time must be finite"):
            generate_traversal(obj, WorldParams(inter_contact_interval=1e308), NoiseStream(1, 0, 0, 0))

    def test_noise_sample_std(self):
        obj = discrimination_pair()[0]
        params = WorldParams(noise_sigma=0.05)
        deviations = []
        for trial in range(1200):  # 1200 trials x 9 components > 1e4 draws
            trav = generate_traversal(obj, params, NoiseStream(77, 0, 0, trial))
            for (features, _), canonical in zip(trav.contacts, obj.contacts):
                deviations.extend(features - canonical)
        std = np.std(deviations)
        assert abs(std - 0.05) / 0.05 < 0.05

    def test_trial_streams_uncorrelated(self):
        obj = discrimination_pair()[0]
        params = WorldParams(noise_sigma=1.0)

        def devs(trial):
            trav = generate_traversal(obj, params, NoiseStream(13, 0, 0, trial))
            return np.concatenate([f - c for (f, _), c in zip(trav.contacts, obj.contacts)])

        a = np.concatenate([devs(2 * k) for k in range(1200)])
        b = np.concatenate([devs(2 * k + 1) for k in range(1200)])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_params_validation(self):
        for sigma in (-0.1, np.inf, np.nan):
            with pytest.raises(ValueError, match=rf"^noise sigma must be >= 0 and finite, got {sigma}$"):
                WorldParams(noise_sigma=sigma)
        for interval in (0.0, -0.1, np.inf, np.nan):
            message = f"^inter_contact_interval must be positive and finite, got {interval}$"
            with pytest.raises(ValueError, match=message):
                WorldParams(inter_contact_interval=interval)


def _grid_object(rows, cols):
    """An object of ``rows`` contacts and ``cols`` neurons, with signed zeros, a huge value and negative ones."""
    if (rows, cols) == (3, 3):
        return _MIXED
    values = np.linspace(-1.0, 1.0, rows * cols).reshape(rows, cols)
    values[0, :3] = (-0.0, 0.0, 1e300)
    return SyntheticObject("g", tuple(values))


class TestGenerateFeatureBlock:
    """One block of test trials against the per-trial traversals and the oracle, compared as bytes."""

    @pytest.mark.parametrize("rows, cols", [(3, 3), (20, 64)])
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_every_trial_has_the_per_trial_bits(self, sigma, n, rows, cols):
        obj, params = _grid_object(rows, cols), WorldParams(noise_sigma=sigma)
        block = generate_feature_block(obj, params, NoiseStream(9, 1, 2), n)
        assert block.shape == (n, rows, cols) and block.dtype == np.float64
        children = NoiseStream(9, 1, 2).children(n)
        per_trial = np.stack([generate_traversal(obj, params, child).features for child in children])
        assert block.tobytes() == per_trial.tobytes()
        canonical = obj.features.tolist()
        for t in range(n):
            rows_t, _ = oracle.traversal(canonical, sigma, 0.020, oracle.derive_seed(9, 1, 2, t))
            assert block[t].tobytes() == np.array(rows_t).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0, 0] = 99.0

    def test_a_family_across_box_muller_chunks(self):
        # 200 trials of 20 x 64 draw 62.5 chunks; 7 of 3 x 300 draw one chunk and 6300 - 4096 more.
        for n, rows, cols in [(200, 20, 64), (7, 3, 300)]:
            assert n * rows * cols > rng._CHUNK
            obj, params = _grid_object(rows, cols), WorldParams(noise_sigma=0.05)
            block = generate_feature_block(obj, params, NoiseStream(4, 1, 0), n)
            lone = [generate_traversal(obj, params, NoiseStream(4, 1, 0, t)).features for t in range(n)]
            assert block.tobytes() == np.stack(lone).tobytes()

    def test_sigma_zero_is_the_objects_own_block(self):
        block = generate_feature_block(_MIXED, WorldParams(), NoiseStream(1), 4)
        assert np.shares_memory(block, _MIXED.features)
        assert block.tobytes() == np.stack([_MIXED.features] * 4).tobytes()

    def test_overflowing_noise_raises_the_per_trial_error(self):
        # At sigma 1e308 some draw pushes a component past the largest double, with no warning (pyproject's filter).
        obj = SyntheticObject("huge", (np.array([0.5, 1.7e308, 0.5]), np.array([1.7e308, 0.5, 1.7e308])))
        params = WorldParams(noise_sigma=1e308)
        with pytest.raises(ValueError, match="feature vector contains non-finite activations") as per_trial:
            for child in NoiseStream(1, 0, 0).children(4):
                generate_traversal(obj, params, child)
        with pytest.raises(ValueError, match="feature vector contains non-finite activations") as block:
            generate_feature_block(obj, params, NoiseStream(1, 0, 0), 4)
        assert str(block.value) == str(per_trial.value)

    def test_a_later_first_failing_trial_raises_its_error_from_one_draw(self):
        obj, params = SyntheticObject("edge", (np.array([1.7e308, 0.5]), np.array([0.5, 0.5]))), WorldParams(1e307)
        for trial in range(8):  # trials 0 to 7 stay finite
            generate_traversal(obj, params, NoiseStream(1, 0, 0, trial))
        with pytest.raises(ValueError, match="feature vector contains non-finite activations") as per_trial:
            generate_traversal(obj, params, NoiseStream(1, 0, 0, 8))
        with (mock.patch.object(rng, "_normals", wraps=rng._normals) as normals,
              pytest.raises(ValueError, match="feature vector contains non-finite activations") as block):
            generate_feature_block(obj, params, NoiseStream(1, 0, 0), 12)
        assert str(block.value) == str(per_trial.value)
        assert normals.call_count == 1  # the error comes from the block's own rows, with nothing drawn again


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

    @pytest.mark.parametrize(
        "objects, message",
        [
            ([{"label": "x", "contacts": [[0.9]], "extra": 1}], "each object needs exactly the keys 'label' and 'contacts'"),
            ([], "objects file must hold one object or a non-empty list of objects"),
            # Two objects labelled A in opposite orders would score 100% on both classifiers.
            ([{"label": "A", "contacts": [[0.9, 0.1], [0.1, 0.9]]}, {"label": "A", "contacts": [[0.1, 0.9], [0.9, 0.1]]}],
             "object label 'A' is used by more than one object"),
            ([{"label": "x", "contacts": [[0.9, 0.1]]}, {"label": "y", "contacts": [[0.9]]}],
             "object 'y' has 1 neurons but 'x' has 2"),
            ([{"label": "a", "contacts": [[], []]}], "object 'a' has contacts of zero neurons"),
            # The config parser rejects booleans and non-numbers; str(None) and str(5) once became labels.
            ([{"label": "x", "contacts": [[0.9]]}, {"label": None, "contacts": [[0.1]]}],
             "object 1 of the file has label None; a label must be a string"),
            ([{"label": 5, "contacts": [[0.9]]}], "object 0 of the file has label 5"),
            ([{"label": "t", "contacts": [[0.9, True]]}],
             r"object 't' has contacts \[\[0.9, True\]\]; each contact must be a list of numbers"),
            ([{"label": "s", "contacts": [["0.9"]]}], "object 's' has contacts"),
            ([{"label": "n", "contacts": [[0.9], None]}], "object 'n' has contacts"),
            ([{"label": "f", "contacts": 0.9}], "object 'f' has contacts 0.9"),
        ],
        ids=["extra-key", "empty-list", "duplicate-labels", "mixed-dimensions", "zero-neurons", "null-label",
             "number-label", "boolean-activation", "string-activation", "null-contact", "number-contacts"],
    )
    def test_rejects(self, tmp_path, objects, message):
        path = tmp_path / "objects.json"
        path.write_text(json.dumps(objects))
        with pytest.raises(ValueError, match=message):
            load_objects(path)
