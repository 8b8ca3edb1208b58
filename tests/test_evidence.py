"""Evidence accumulation, lambda adaptation, and their invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempocode.evidence import EvidenceState, prediction_error


class TestUpdateExamples:
    def test_lambda_zero_is_pure_present(self):
        state = EvidenceState(2)
        state.lambdas[:] = 0.0
        state.evidence[:] = [0.9, 0.1]
        state.update(np.log([0.2, 0.8]))
        np.testing.assert_allclose(state.evidence, [0.2, 0.8], rtol=1e-12)

    def test_lambda_one_ignores_present(self):
        state = EvidenceState(2)
        state.lambdas[:] = 1.0
        state.evidence[:] = [0.3, 0.7]
        state.update(np.log([0.99, 0.01]))
        np.testing.assert_allclose(state.evidence, [0.3, 0.7], rtol=1e-12)

    def test_half_half_mixing(self):
        state = EvidenceState(2, initial_lambda=0.5)
        state.evidence[:] = [0.5, 0.5]
        state.update(np.log([0.9, 0.1]))
        np.testing.assert_allclose(state.evidence, [0.7, 0.3], rtol=1e-12)

    def test_update_leaves_lambdas(self):
        state = EvidenceState(3, initial_lambda=0.25)
        state.update(np.log([0.2, 0.3, 0.5]))
        assert np.all(state.lambdas == 0.25)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EvidenceState(2).update([0.0, 0.0, 0.0])


class TestAdaptLambdaExamples:
    def test_error_half_is_neutral(self):
        state = EvidenceState(2, initial_lambda=0.37)
        state.adapt_lambda(0, 0.5)
        assert state.lambdas[0] == 0.37

    def test_unit_error_decrements(self):
        state = EvidenceState(1, initial_lambda=0.5, alpha=0.001)
        state.adapt_lambda(0, 1.0)
        assert state.lambdas[0] == pytest.approx(0.4995, abs=1e-15)

    def test_clip_at_one(self):
        state = EvidenceState(1, initial_lambda=0.9995, alpha=0.001)
        state.adapt_lambda(0, 0.0)
        assert state.lambdas[0] == 1.0

    def test_only_named_class_touched(self):
        state = EvidenceState(3, initial_lambda=0.5)
        state.adapt_lambda(1, 0.0)
        assert state.lambdas[0] == 0.5 and state.lambdas[2] == 0.5
        assert state.lambdas[1] > 0.5

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_out_of_range_error_rejected(self, bad):
        with pytest.raises(ValueError):
            EvidenceState(2).adapt_lambda(0, bad)

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError):
            EvidenceState(2).adapt_lambda(2, 0.5)

    def test_drift_direction(self):
        # lambda rises exactly when error < 0.5 and falls when error > 0.5
        up = EvidenceState(1, initial_lambda=0.5)
        up.adapt_lambda(0, 0.49)
        assert up.lambdas[0] > 0.5
        down = EvidenceState(1, initial_lambda=0.5)
        down.adapt_lambda(0, 0.51)
        assert down.lambdas[0] < 0.5


class TestBestHypothesis:
    def test_argmax(self):
        state = EvidenceState(2)
        state.evidence[:] = [0.2, 0.8]
        assert state.best_hypothesis() == 1

    def test_tie_breaks_low(self):
        state = EvidenceState(2)
        state.evidence[:] = [0.5, 0.5]
        assert state.best_hypothesis() == 0

    def test_singleton(self):
        assert EvidenceState(1).best_hypothesis() == 0


class TestPredictionError:
    def test_basic(self):
        assert prediction_error(np.log([0.7, 0.3]), 0) == pytest.approx(0.3, rel=1e-12)

    def test_clamped_for_super_unit_likelihood(self):
        assert prediction_error([0.5], 0) == 0.0  # exp(0.5) > 1 would go negative

    @pytest.mark.parametrize("index", [-1, -2, 2])
    def test_rejects_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=rf"hypothesis index {index} out of range \[0, 2\)"):
            prediction_error([-0.1, -2.0], index)


class TestInvariants:
    @given(
        st.lists(st.floats(min_value=-20.0, max_value=3.0, allow_nan=False), min_size=3, max_size=3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_simplex_preserved(self, lls, lam):
        state = EvidenceState(3, initial_lambda=lam)
        state.update(lls)
        assert np.all(state.evidence >= 0.0)
        assert state.evidence.sum() == pytest.approx(1.0, abs=1e-12)

    def test_randomized_sequences_hold_invariants(self):
        rng = np.random.default_rng(2024)
        state = EvidenceState(4, initial_lambda=0.5, alpha=0.05)
        for _ in range(20000):
            if rng.random() < 0.5:
                state.update(rng.uniform(-10, 2, size=4))
            else:
                state.adapt_lambda(int(rng.integers(0, 4)), float(rng.random()))
            assert np.all((state.lambdas >= 0.0) & (state.lambdas <= 1.0))
            assert np.all(state.evidence >= 0.0)
            assert abs(state.evidence.sum() - 1.0) < 1e-12

    def test_fixed_lambda_geometric_convergence(self):
        # constant likelihoods contract the evidence toward their
        # normalization with factor lambda per step
        lam = 0.6
        lik = np.array([0.5, 0.3, 0.2])
        target = lik / lik.sum()
        state = EvidenceState(3, initial_lambda=lam)
        state.evidence[:] = [0.98, 0.01, 0.01]
        gaps = []
        for _ in range(100):
            state.update(np.log(lik))
            gaps.append(np.abs(state.evidence - target).max())
        for prev, cur in zip(gaps[:10], gaps[1:11]):
            assert cur == pytest.approx(lam * prev, rel=1e-6)
        np.testing.assert_allclose(state.evidence, target, atol=1e-14)
