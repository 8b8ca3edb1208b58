"""Evidence accumulation with a learnable per-class memory coefficient.

Each object class keeps an evidence value and a memory coefficient lambda
in [0, 1]:

    evidence(t+1) = (1 - lambda) * likelihood(obs_t) + lambda * evidence(t)

followed by normalization to a probability vector. Low lambda trusts the
current contact; high lambda trusts accumulated history. lambda itself is
adapted from prediction error by the heuristic

    lambda <- clip(lambda + alpha * (0.5 - prediction_error), 0, 1)

so reliable predictions (error < 0.5) push lambda up and unreliable ones
push it down.
"""

from __future__ import annotations

import math

import numpy as np

from .types import _count, _positive, _unit_interval


class EvidenceState:
    """Mutable per-class evidence accumulator owned by one inference loop.

    Evidence starts uniform (the symmetric choice; it makes the first
    best-hypothesis query well defined) and stays a normalized probability
    vector after every update with positive total.
    """

    def __init__(self, n_classes: int, initial_lambda: float = 0.5, alpha: float = 0.001):
        n_classes = _count("n_classes", n_classes, 1)
        self.evidence = np.full(n_classes, 1.0 / n_classes)
        self.lambdas = np.full(n_classes, _unit_interval("initial_lambda", initial_lambda))
        self.alpha = _positive("alpha", alpha)

    @property
    def n_classes(self) -> int:
        return self.evidence.size

    def update(self, log_likelihoods) -> None:
        """Mix the current observation's likelihoods into the evidence.

        The likelihoods come from numpy's ``exp``, whose float64 kernel
        numpy picks for the CPU it runs on, so the evidence bits are not
        portable across CPUs: on an AVX512F Xeon, ``np.exp`` and
        ``math.exp`` disagree in the last bit on about 4.6% of inputs in
        [-20, 0]. Switching to :mod:`math` would change recorded evidence
        bits, the benchmark's frozen ``online`` digest among them.
        ``log_likelihoods`` must have shape ``(n_classes,)``.
        :func:`tempocode.inference.exploration_step` mixes through the same
        code, in :meth:`_observe`, without calling this method.
        """
        ll = np.asarray(log_likelihoods, dtype=float)
        if ll.shape != (self.n_classes,):
            raise ValueError(f"expected {self.n_classes} log-likelihoods, got shape {ll.shape}")
        self._mix(ll)

    def adapt_lambda(self, class_idx: int, prediction_error: float) -> None:
        """Nudge one class's lambda from its prediction error in [0, 1]."""
        if not 0 <= class_idx < self.n_classes:
            raise ValueError(f"class index {class_idx} out of range [0, {self.n_classes})")
        self._adapt(class_idx, _unit_interval("prediction_error", prediction_error))

    def best_hypothesis(self) -> int:
        """Argmax class; ties break toward the lowest index."""
        return int(self.evidence.argmax())

    def _observe(self, ll: np.ndarray) -> tuple[int, float]:
        """One observation of checked ``(n_classes,)`` log-likelihoods: (best hypothesis, its prediction error).

        The public chain :meth:`update`, :meth:`best_hypothesis` and
        :meth:`adapt_lambda` without their checks, with the prediction error
        between the last two: the same operations, in the same order, on the
        same bits.
        """
        self._mix(ll)
        best = self.best_hypothesis()
        error = _error(ll, best)
        self._adapt(best, error)
        return best, error

    def _mix(self, ll: np.ndarray) -> None:
        # (1 - lambda) * likelihood + lambda * evidence, each product and the sum rounded once.
        evidence = np.exp(ll)
        evidence *= 1.0 - self.lambdas
        evidence += self.lambdas * self.evidence
        total = np.add.reduce(evidence)
        if total > 0.0:
            evidence /= total
        self.evidence = evidence

    def _adapt(self, class_idx: int, error: float) -> None:
        delta = self.alpha * (0.5 - error)
        self.lambdas[class_idx] = min(max(self.lambdas[class_idx] + delta, 0.0), 1.0)


def _error(ll: np.ndarray, best: int) -> float:
    """Prediction error: 1 - likelihood of the best hypothesis, clamped into [0, 1] (a likelihood > 1 gives 0)."""
    return min(max(1.0 - math.exp(ll[best]), 0.0), 1.0)
