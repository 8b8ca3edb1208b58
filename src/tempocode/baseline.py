"""Dense-accumulation baseline: summed feature vectors, nearest centroid.

This is the order-blind reference point: a traversal is reduced to the
componentwise sum of its contact vectors, training averages those sums per
class, and classification picks the Euclidean-nearest centroid. Any two
traversals that visit the same features in different orders are identical
to this classifier by construction.

Both stages take trials as one (trials, contacts, neurons) block, summed
over its contacts by :func:`_sums`. :func:`dense_train` averages each
class's sums; :func:`_nearest` takes all trials' distances to all
centroids in one pass, and :func:`dense_classify` is its one-trial case.
Each sum and distance reduces its own row, so its bits do not depend on
the other trials of its block.

A sum, centroid or distance past the largest double leaves no nearest
centroid to pick: every overflowing distance would tie at ``inf`` and go
to the first class. So the passes run without numpy's overflow warnings,
and a centroid or distance that is not finite raises instead.
"""

from __future__ import annotations

import numpy as np

from .types import Traversal


class _DenseOverflow(ValueError):
    """A centroid or distance of the dense baseline that overflowed, so that a caller can name its noise level."""


def _sums(block: np.ndarray) -> np.ndarray:
    """Each trial's componentwise sum over its contacts, from a (trials, contacts, neurons) block."""
    with np.errstate(over="ignore", invalid="ignore"):  # a caller's check rejects a sum that is not finite
        return np.sum(block, axis=-2)


def dense_train(classes: list[tuple[str, np.ndarray]]) -> list[tuple[str, np.ndarray]]:
    """Each class's centroid, its mean trial sum, from one ``(label, (trials, contacts, neurons) block)`` per class.

    Raises on no classes, a class with no trials or no contacts, a repeated
    label, and a block whose neuron count differs from the first block's.
    """
    if not classes:
        raise ValueError("dense_train needs at least one class")
    labels, neurons = [label for label, _ in classes], classes[0][1].shape[-1]
    for label, block in classes:
        if labels.count(label) > 1:
            raise ValueError(f"class {label!r} is given more than once; each class needs one block")
        if block.ndim != 3 or 0 in block.shape[:2]:
            raise ValueError(f"class {label!r} has no (trials, contacts, neurons) block to sum, got {block.shape}")
        if block.shape[-1] != neurons:
            raise ValueError(f"class {label!r} has {block.shape[-1]} neurons but {labels[0]!r} has {neurons}")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects an overflow
        centroids = [(label, np.mean(_sums(block), axis=0)) for label, block in classes]
    for label, centroid in centroids:
        if not np.isfinite(centroid).all():
            raise _DenseOverflow(f"the dense baseline overflows: the centroid of {label!r} is not finite")
    return centroids


def _nearest(block: np.ndarray, centroids: list[tuple[str, np.ndarray]]) -> np.ndarray:
    """Each trial's index of its nearest centroid, ties to the first, from a (trials, contacts, neurons) block."""
    return centroid_distances(_sums(block), [centroid for _, centroid in centroids]).argmin(axis=-1)


def dense_classify(traversal: Traversal, centroids: list[tuple[str, np.ndarray]]) -> str:
    """Label of the centroid nearest to the traversal's feature sum: :func:`_nearest` on a one-trial block."""
    if not centroids:
        raise ValueError("dense_classify needs at least one centroid")
    if not len(traversal):
        raise ValueError("cannot sum an empty traversal")
    return centroids[int(_nearest(traversal.features[None], centroids)[0])][0]


def centroid_distances(totals: np.ndarray, centroids: list[np.ndarray]) -> np.ndarray:
    """Squared Euclidean distances from each sum to each centroid, in one pass.

    ``totals`` holds sums along its last axis: one sum of shape (N,) gives
    the (centroids,) distances, a (rows, N) block the (rows, centroids)
    ones. Each entry is summed on its own, so entry ``[..., i]`` has the
    same bits as ``np.sum((total - centroids[i]) ** 2)``. A distance that
    is not finite raises ``ValueError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects an overflow
        distances = ((np.asarray(totals)[..., None, :] - np.stack(centroids)) ** 2).sum(axis=-1)
    if not np.isfinite(distances).all():
        raise _DenseOverflow("the dense baseline overflows: a distance to a centroid is not finite")
    return distances
