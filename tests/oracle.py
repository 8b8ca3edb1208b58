"""The tempocode pipeline in Python floats and :mod:`math`: the one reference its array paths must equal.

Each value is computed one scalar operation at a time, in the order the
pipeline defines, and ``tests/test_oracle.py`` compares the package's array
paths with it as bytes. This module imports nothing from ``tempocode``. It
uses numpy only where numpy's own kernel or reduction order is the
definition, each call marked ``numpy spec``: ``np.sum`` and ``np.mean`` over
the dense path's rows, and the evidence path's ``exp``, ``log`` and ``sum``,
which are numpy's kernels, picked per CPU, not libm's.

A feature row is a list of floats, a packet a list of ``(neuron id, global
spike time)`` in firing order, a weight matrix a list of rows. ``encoder``
has ``sparsity_threshold`` and ``tau_base``; ``stdp`` has ``a_plus``,
``a_minus``, ``tau_plus``, ``tau_minus`` and ``w_max``. An input the
pipeline rejects raises :class:`Rejected`, naming the check and the
values the package's error prints.
"""

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
TRAIN, TEST = 0, 1


class Rejected(Exception):
    """An input the pipeline rejects: ``kind`` names the check, ``detail`` the values its error prints."""

    def __init__(self, kind, *detail):
        super().__init__(kind, *detail)
        self.kind, self.detail = kind, detail


def mix64(x):
    """The SplitMix64 output scrambler (Steele, Lea and Flood)."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed, *indices):
    """The seed of ``NoiseStream(seed, *indices)``: ``mix64(seed)``, then ``mix64(h ^ mix64(i + 1))`` per index."""
    h = mix64(seed)
    for index in indices:
        h = mix64(h ^ mix64(index + 1))
    return h


def splitmix64(seed, count):
    """The first ``count`` outputs of the SplitMix64 stream over ``seed``."""
    return [mix64(seed + k * GOLDEN) for k in range(1, count + 1)]


def uniforms(seed, count):
    """The stream's first ``count`` doubles in [0, 1): each output's top 53 bits."""
    return [(x >> 11) * 2.0**-53 for x in splitmix64(seed, count)]


def box_muller(u1, u2):
    """The cosine branch, with a zero ``u1`` replaced by 2**-53 so that its log is finite."""
    return math.sqrt(-2.0 * math.log(u1 if u1 != 0.0 else 2.0**-53)) * math.cos(2.0 * math.pi * u2)


def normal(stream, *indices):
    """The normal a stream owns at ``indices``: ``normal_grid(*shape)[i1, ..., ik]`` is ``normal(stream, i1, ..., ik)``.

    Any number of indices, one or more, as the grid's shape has axes. Child
    t of ``NoiseStream(seed, *prefix)``, in ``children`` and in
    ``normal_grids``, is the stream ``derive_seed(seed, *prefix, t)``.
    """
    return box_muller(*uniforms(derive_seed(stream, *indices), 2))


def traversal(canonical, sigma, interval, stream):
    """The rows and times of one noisy sweep: ``(sigma * z) + c`` per component, contact k at ``k * interval``.

    At sigma 0 the rows are the canonical ones, signed zeros included.
    Contacts are checked in order, each row before its time.
    """
    rows = [[(sigma * normal(stream, k, c)) + x if sigma > 0.0 else x for c, x in enumerate(row)]
            for k, row in enumerate(canonical)]
    times = [k * interval for k in range(len(canonical))]
    for row, t in zip(rows, times):
        if not all(map(math.isfinite, row)):
            raise Rejected("activations", row)
        if not math.isfinite(t):
            raise Rejected("contact time", t)
    return rows, times


def encode(row, arrival, encoder):
    """One contact's packet: rank r of the n neurons above the threshold fires at ``arrival + tau_base * (r / n)``.

    Rank by descending activation, equal ones (``0.0`` and ``-0.0``
    included) in ascending id.
    """
    active = [i for i, x in enumerate(row) if x > encoder.sparsity_threshold]
    ranked = sorted(active, key=lambda i: -row[i])
    return [(i, arrival + encoder.tau_base * (r / len(active))) for r, i in enumerate(ranked)]


def encode_traversal(rows, times, encoder):
    """Every contact's packet in turn; a gap within the packet span is rejected, with the span, before its contact."""
    packets = []
    for k, (row, t) in enumerate(zip(rows, times)):
        if k and t - times[k - 1] <= encoder.tau_base:
            raise Rejected("gap", t - times[k - 1], encoder.tau_base)
        packets.append(encode(row, t, encoder))
    return packets


def increment(dt, stdp):
    """What one spike pair adds to a weight; ``-0.0`` at dt 0, since ``w + (-0.0)`` is ``w`` for every w."""
    if dt > 0.0:
        return stdp.a_plus * math.exp(-dt / stdp.tau_plus)
    if dt < 0.0:
        return -(stdp.a_minus * math.exp(dt / stdp.tau_minus))
    return -0.0


def train(weights, traversals, stdp):
    """Update every (pre, post) synapse of every consecutive packet pair, pair after pair, in place.

    Each update adds the increment for ``post - pre`` and clips to ``w_max`` if it is set.
    """
    for packets in traversals:
        for prev, cur in zip(packets, packets[1:]):
            for i, pre in prev:
                for j, post in cur:
                    if not (math.isfinite(pre) and math.isfinite(post)):
                        raise Rejected("spike time")
                    w = weights[i][j] + increment(post - pre, stdp)
                    weights[i][j] = w if stdp.w_max is None else min(max(w, -stdp.w_max), stdp.w_max)
    return weights


def leading_score(weights, packets):
    """The weight on each consecutive (leading pre, leading post) pair where both fire, folded from 0.0."""
    total = 0.0
    for prev, cur in zip(packets, packets[1:]):
        if prev and cur:
            total += weights[prev[0][0]][cur[0][0]]
    return total


def causal_score(weights, prev, cur):
    """The weight on each (pre, post) pair whose pre spike comes first, in ascending (pre, post) order, from 0.0."""
    total = 0.0
    for i, pre in sorted(prev):
        for j, post in sorted(cur):
            if pre < post:
                total += weights[i][j]
    return total


def best(scores):
    """The first index of the highest score; NaN never wins, and with no winner index 0 does."""
    pick, top = 0, -math.inf
    for m, score in enumerate(scores):
        if score > top:
            pick, top = m, score
    return pick


def dense_sum(rows):
    """One sweep's componentwise sum."""
    return np.sum(np.array(rows, dtype=float), axis=0).tolist()  # numpy spec: np.sum's order over the contacts


def centroid(sums):
    """The mean of a class's sweep sums."""
    return np.mean(np.array(sums), axis=0).tolist()  # numpy spec: np.mean's order over the sweeps


def squared_distance(total, center):
    """The squared Euclidean distance from a sum to a centroid."""
    return float(np.sum(np.array([(t - c) * (t - c) for t, c in zip(total, center)])))  # numpy spec: pairwise sum


def log_likelihoods(scores):
    """The log softmax of ``scores``."""
    shifted = [s - max(scores) for s in scores]
    log_total = float(np.log(np.exp(np.array(shifted)).sum()))  # numpy spec: the evidence path's exp, sum and log
    return [s - log_total for s in shifted]


def prediction_error(ll, pick):
    """1 - the likelihood of class ``pick``, clamped into [0, 1]."""
    return min(max(1.0 - math.exp(ll[pick]), 0.0), 1.0)


def episode(weights, readings, times, encoder, interval, alpha=0.001):
    """Each step of the inference loop over frozen models: (scores, evidence, lambdas, best class).

    A time of None is the loop's clock, the last contact's time plus
    ``interval``. Evidence starts uniform and every lambda at 0.5; each
    step mixes ``(1 - lambda) * likelihood + lambda * evidence``,
    normalises a positive total, and moves the best class's lambda by
    ``alpha * (0.5 - error)`` within [0, 1].
    """
    m = len(weights)
    evidence, lambdas = [1.0 / m] * m, [0.5] * m
    prev, clock, steps = [], 0.0, []
    for reading, contact_time in zip(readings, times):
        t = clock if contact_time is None else contact_time
        packet = encode(reading, t, encoder)
        scores = [causal_score(w, prev, packet) for w in weights]
        ll = log_likelihoods(scores)
        likelihoods = np.exp(np.array(ll)).tolist()  # numpy spec: the evidence path's exp
        mixed = [(1.0 - lam) * p + lam * e for lam, p, e in zip(lambdas, likelihoods, evidence)]
        total = float(np.sum(mixed))  # numpy spec: the evidence path's sum
        evidence = [x / total for x in mixed] if total > 0.0 else mixed
        pick = max(range(m), key=evidence.__getitem__)
        error = prediction_error(ll, pick)
        lambdas[pick] = min(max(lambdas[pick] + alpha * (0.5 - error), 0.0), 1.0)
        steps.append((scores, evidence, list(lambdas), pick))
        prev, clock = packet, t + interval
    return steps


def training(objects, seed, sigma, n_train, interval, encoder, stdp):
    """Each object's trained weights and dense centroid, from the same training sweeps.

    ``objects`` holds ``(label, canonical rows)``; sweep t of object o draws
    from the stream ``derive_seed(seed, TRAIN, o, t)``. A sweep the encoder
    rejects raises its error before the object's weights are trained.
    """
    n = len(objects[0][1][0])
    models, centroids = [], []
    for o, (label, canonical) in enumerate(objects):
        sweeps = [traversal(canonical, sigma, interval, derive_seed(seed, TRAIN, o, t)) for t in range(n_train)]
        packets = [encode_traversal(rows, times, encoder) for rows, times in sweeps]
        models.append(train([[0.0] * n for _ in range(n)], packets, stdp))
        if not all(math.isfinite(w) for row in models[-1] for w in row):
            raise Rejected("overflow", label)
        centroids.append(centroid([dense_sum(rows) for rows, _ in sweeps]))
    return models, centroids


def discrimination(objects, seed, sigma, n_train, n_test, interval, encoder, stdp):
    """``(models, centroids, counts)`` of one run; counts are each object's ``(dense, temporal)`` right answers.

    An object of one contact is rejected first: it has no packet pair.
    Test sweep t of object o draws from ``derive_seed(seed, TEST, o, t)``;
    an object's sweeps are all drawn before any is encoded. Each picks the
    model of its best leading-pair score and the nearest centroid, ties to
    the first.
    """
    for label, canonical in objects:
        if len(canonical) < 2:
            raise Rejected("one contact", label)
    models, centroids = training(objects, seed, sigma, n_train, interval, encoder, stdp)
    counts = []
    for o, (_, canonical) in enumerate(objects):
        sweeps = [traversal(canonical, sigma, interval, derive_seed(seed, TEST, o, t)) for t in range(n_test)]
        encoded = [encode_traversal(rows, times, encoder) for rows, times in sweeps]
        dense = temporal = 0
        for (rows, _), packets in zip(sweeps, encoded):
            temporal += best([leading_score(w, packets) for w in models]) == o
            distances = [squared_distance(dense_sum(rows), c) for c in centroids]
            dense += distances.index(min(distances)) == o
        counts.append((dense, temporal))
    return models, centroids, counts
