"""Dense-accumulation baseline: summed feature vectors, nearest centroid.

This is the order-blind reference point: a traversal is reduced to the
componentwise sum of its contact vectors, training averages those sums per
class, and classification picks the Euclidean-nearest centroid. Any two
traversals that visit the same features in different orders are identical
to this classifier by construction.

Sums and distances come from array passes that reduce each row on its own,
so each has the bits of the per-traversal or per-centroid ``np.sum`` it
replaced: :func:`dense_train` sums each class's traversals of one length
as one stack, and the distances from many sums to all centroids, argmin
ties included, take one pass. :func:`dense_classify` is the one-sum case.
"""

from __future__ import annotations

import numpy as np

from .types import Traversal


def dense_train(traversals: list[Traversal]) -> list[tuple[str, np.ndarray]]:
    """Per-class centroids of summed contact vectors.

    Class order follows first appearance in the training list. Raises on an
    empty training set or a class with no traversals.
    """
    if not traversals:
        raise ValueError("dense_train needs at least one traversal per class")
    keys = [(trav.label, len(trav)) for trav in traversals]
    if any(length == 0 for _, length in keys):
        raise ValueError("cannot sum an empty traversal")
    sums = np.empty((len(traversals), traversals[0].features.shape[-1]))
    for key in set(keys):
        rows = [row for row, other in enumerate(keys) if other == key]
        sums[rows] = np.sum(np.stack([traversals[row].features for row in rows]), axis=-2)
    labels = [label for label, _ in keys]
    return [(label, np.mean(sums[[other == label for other in labels]], axis=0)) for label in dict.fromkeys(labels)]


def dense_classify(traversal: Traversal, centroids: list[tuple[str, np.ndarray]]) -> str:
    """Label of the centroid nearest to the traversal's feature sum.

    Ties go to the lowest class index (argmin keeps the first minimum).
    """
    if not centroids:
        raise ValueError("dense_classify needs at least one centroid")
    distances = centroid_distances(traversal.feature_sum()[None], [centroid for _, centroid in centroids])
    return centroids[int(distances[0].argmin())][0]


def centroid_distances(totals: np.ndarray, centroids: list[np.ndarray]) -> np.ndarray:
    """Squared Euclidean distances from each sum to each centroid, in one pass.

    ``totals`` holds sums along its last axis: one sum of shape (N,) gives
    the (centroids,) distances, a (rows, N) block the (rows, centroids)
    ones. Each entry is summed on its own, so entry ``[..., i]`` has the
    same bits as ``np.sum((total - centroids[i]) ** 2)``.
    """
    return ((np.asarray(totals)[..., None, :] - np.stack(centroids)) ** 2).sum(axis=-1)
