"""Dense-accumulation baseline: summed feature vectors, nearest centroid.

This is the order-blind reference point: a traversal is reduced to the
componentwise sum of its contact vectors, training averages those sums per
class, and classification picks the Euclidean-nearest centroid. Any two
traversals that visit the same features in different orders are identical
to this classifier by construction.

Distances to all centroids come from one array pass; each row is still
reduced on its own, so every distance, and with it every argmin tie, has
the bits of the per-centroid ``np.sum`` it replaced.
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
    sums: dict[str, list[np.ndarray]] = {}
    for trav in traversals:
        sums.setdefault(trav.label, []).append(trav.feature_sum())
    return [(label, np.mean(np.stack(class_sums), axis=0)) for label, class_sums in sums.items()]


def dense_classify(traversal: Traversal, centroids: list[tuple[str, np.ndarray]]) -> str:
    """Label of the centroid nearest to the traversal's feature sum.

    Ties go to the lowest class index (argmin keeps the first minimum).
    """
    if not centroids:
        raise ValueError("dense_classify needs at least one centroid")
    distances = centroid_distances(traversal.feature_sum(), [centroid for _, centroid in centroids])
    return centroids[int(distances.argmin())][0]


def centroid_distances(total: np.ndarray, centroids: list[np.ndarray]) -> np.ndarray:
    """Squared Euclidean distance from ``total`` to each centroid, in one pass.

    Each row is summed on its own, so entry ``i`` has the same bits as
    ``np.sum((total - centroids[i]) ** 2)``.
    """
    return ((total - np.stack(centroids)) ** 2).sum(axis=1)
