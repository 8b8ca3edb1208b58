"""Evidence accumulation, lambda adaptation, and their invariants."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tempocode.evidence import EvidenceState
from tempocode.inference import _log_softmax, log_likelihoods_from_scores


class TestUpdateExamples:
    @pytest.mark.parametrize(
        "lam, evidence, likelihoods, expected",
        [(0.0, [0.9, 0.1], [0.2, 0.8], [0.2, 0.8]), (1.0, [0.3, 0.7], [0.99, 0.01], [0.3, 0.7]),
         (0.5, [0.5, 0.5], [0.9, 0.1], [0.7, 0.3])],
        ids=["lambda-zero-is-pure-present", "lambda-one-ignores-present", "half-half-mixing"],
    )
    def test_examples(self, lam, evidence, likelihoods, expected):
        state = EvidenceState(2, initial_lambda=lam)
        state.evidence[:] = evidence
        state.update(np.log(likelihoods))
        np.testing.assert_allclose(state.evidence, expected, rtol=1e-12)

    def test_update_leaves_lambdas(self):
        state = EvidenceState(3, initial_lambda=0.25)
        state.update(np.log([0.2, 0.3, 0.5]))
        assert np.all(state.lambdas == 0.25)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EvidenceState(2).update([0.0, 0.0, 0.0])


class TestAdaptLambdaExamples:
    @pytest.mark.parametrize(
        "lam, alpha, error, expected",
        [(0.37, 0.001, 0.5, 0.37), (0.5, 0.001, 1.0, 0.4995), (0.9995, 0.001, 0.0, 1.0)],
        ids=["error-half-is-neutral", "unit-error-decrements", "clip-at-one"],
    )
    def test_examples(self, lam, alpha, error, expected):
        state = EvidenceState(2, initial_lambda=lam, alpha=alpha)
        state.adapt_lambda(0, error)
        assert state.lambdas[0] == expected

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
    @pytest.mark.parametrize(
        "evidence, best", [([0.2, 0.8], 1), ([0.5, 0.5], 0), ([1.0], 0)], ids=["argmax", "tie-breaks-low", "singleton"]
    )
    def test_examples(self, evidence, best):
        state = EvidenceState(len(evidence))
        state.evidence[:] = evidence
        assert state.best_hypothesis() == best


class TestPredictionError:
    """The step's prediction error, from :meth:`EvidenceState._observe`."""

    def test_basic(self):
        # At lambda 0 the evidence is the likelihoods, so class 0 is picked with error 1 - 0.7.
        best, error = EvidenceState(2, initial_lambda=0.0)._observe(np.log([0.7, 0.3]))
        assert best == 0 and error == pytest.approx(0.3, rel=1e-12)

    def test_clamped_for_super_unit_likelihood(self):
        assert EvidenceState(1)._observe(np.array([0.5])) == (0, 0.0)  # exp(0.5) > 1 would go negative


@pytest.mark.parametrize(
    "scores, message",
    [([[1.0, 2.0], [3.0, 4.0]], "scores must be 1-D, got shape (2, 2)"), (0.0, "scores must be 1-D, got shape ()")],
    ids=["2-d-scores", "0-d-score"],
)
def test_an_input_that_is_not_1d_is_rejected_naming_its_shape(scores, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        log_likelihoods_from_scores(scores)


def _public_chain(state, scores):
    ll = log_likelihoods_from_scores(scores)
    state.update(ll)
    best = state.best_hypothesis()
    error = oracle.prediction_error(ll, best)
    state.adapt_lambda(best, error)
    return ll, best, error


def _private_pass(state, scores):
    ll = _log_softmax(np.array(scores, dtype=float))
    return (ll, *state._observe(ll))


def _signed_zeros(rng, n):
    return rng.choice([0.0, -0.0], n)


def _underflowing(rng, n):
    # exp of every shifted score but the largest underflows, to 0.0 or to a subnormal.
    return rng.choice([0.0, -700.0, -745.0, -1e4], n) + rng.uniform(-5.0, 0.0, n)


def _spread(rng, n):
    return rng.normal(0.0, 3.0, n)


class TestThePrivatePassIsThePublicChain:
    """The step's evidence pass gives the public chain's log-likelihoods, evidence, lambdas, pick and error as bytes.

    Each draw also runs at ten times its scale, where the softmax is sharper and more of it underflows."""

    @pytest.mark.parametrize("draw", [_signed_zeros, _underflowing, _spread])
    @pytest.mark.parametrize(
        "initial_lambda, alpha", [(0.0, 0.001), (1.0, 0.001), (0.5, 0.001), (0.5, 0.5)],
        ids=["lambda-0", "lambda-1", "lambda-half", "lambda-to-both-bounds"],
    )
    @pytest.mark.parametrize("n_classes", [1, 8])
    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_every_step_matches_as_bytes(self, n_classes, initial_lambda, alpha, draw, scale):
        rng = np.random.default_rng(n_classes * 1000 + int(initial_lambda * 10) + int(alpha * 10))
        public, private = (EvidenceState(n_classes, initial_lambda, alpha) for _ in range(2))
        lambdas = set()
        for step in range(60):
            scores = scale * draw(rng, n_classes)
            got = _private_pass(private, scores)
            expected = _public_chain(public, scores)
            assert (got[0].tobytes(), got[1], struct.pack("d", got[2])) == (
                expected[0].tobytes(), expected[1], struct.pack("d", expected[2])), f"step {step}"
            assert (private.evidence.tobytes(), private.lambdas.tobytes()) == (
                public.evidence.tobytes(), public.lambdas.tobytes()), f"step {step}"
            assert type(got[1]) is int and type(got[2]) is float
            lambdas.update(private.lambdas.tolist())
        # A large alpha drives some lambda from 0.5 onto a bound, where the clip holds it.
        assert alpha < 0.5 or lambdas & {0.0, 1.0}


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
