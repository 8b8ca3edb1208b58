"""Shared domain types and their invariants.

Every type here is validated on construction. All but :class:`WeightMatrix`
are value types, treated as immutable afterwards and so safe to share
between threads; STDP writes a ``WeightMatrix``'s array in place
(:mod:`tempocode.stdp`). Times are seconds in double precision throughout
(milliseconds appear only in display formatting). Neuron ids are dense
integers 0..N-1; sparse spike maps iterate in ascending neuron-id order so
downstream sums are reproducible.

A numpy array has no single truth value, so a generated ``__eq__`` over
one raises. The types that hold arrays, :class:`Traversal` and
:class:`WeightMatrix` here and ``SyntheticObject`` and ``ObjectModel``
elsewhere, are declared ``eq=False``: they compare and hash by identity,
as ``EvidenceState`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

def as_features(values) -> np.ndarray:
    """Validate and convert a feature vector; rejects empty or non-finite input, an integer past any double too."""
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:  # an integer too large for a double
        raise ValueError("feature vector holds an integer too large for a double") from None
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"feature vector must be 1-D with at least one neuron, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"feature vector contains non-finite activations: {arr!r}")
    return arr


@dataclass(frozen=True)
class SpikePacket:
    """Rank-order spike packet produced by one sensor contact.

    ``spikes`` maps neuron id to spike time offset (seconds) within the
    packet; ``arrival`` is the global time of the packet's first spike.
    A non-empty packet always has minimum offset exactly 0, and all offsets
    are pairwise distinct.

    The public constructor checks every invariant and stores the spikes in
    ascending neuron-id order. :func:`tempocode.encoding.encode` builds its
    packets through :meth:`_from_ordered` instead, which trusts the caller
    for the invariants its construction guarantees (ascending int ids,
    finite non-negative float offsets, a zero minimum) and checks none.
    """

    spikes: dict[int, float]
    arrival: float = 0.0

    def __post_init__(self):
        ordered = {int(nid): float(t) for nid, t in sorted(self.spikes.items())}
        if len(ordered) != len(self.spikes):
            raise ValueError("duplicate neuron ids in spike packet")
        if not math.isfinite(self.arrival):
            raise ValueError(f"packet arrival time must be finite, got {self.arrival}")
        times = list(ordered.values())
        if times:
            if not all(math.isfinite(t) and t >= 0.0 for t in times):
                raise ValueError(f"spike offsets must be finite and non-negative: {times}")
            if min(times) != 0.0:
                raise ValueError(f"first spike of a non-empty packet must be at offset 0, got {min(times)}")
            if len(set(times)) != len(times):
                raise ValueError(f"spike offsets must be pairwise distinct: {times}")
        object.__setattr__(self, "spikes", ordered)

    @classmethod
    def _from_ordered(cls, spikes: dict[int, float], arrival: float) -> "SpikePacket":
        """A packet from spikes that already meet every invariant, stored as given."""
        packet = object.__new__(cls)
        object.__setattr__(packet, "spikes", spikes)
        object.__setattr__(packet, "arrival", arrival)
        return packet

    @property
    def id_time_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Neuron ids (``intp``) and global spike times (``float64``) in ascending id order.

        Each time is the spike's ``arrival + offset``, added in Python, so
        a time past the largest double is ``inf`` with no warning. They are
        built on each read and not kept: every caller in the package reads
        a packet's arrays once. Both are read-only.
        """
        n = len(self.spikes)
        ids = np.fromiter(self.spikes, np.intp, n)
        times = np.fromiter([self.arrival + t for t in self.spikes.values()], float, n)
        ids.flags.writeable = times.flags.writeable = False
        return ids, times

    def __len__(self) -> int:
        """The number of spikes; an empty packet is false, as Python's truth test falls back to ``len``."""
        return len(self.spikes)

    def by_time(self) -> list[tuple[int, float]]:
        """(neuron id, offset) pairs sorted by firing time."""
        return sorted(self.spikes.items(), key=lambda kv: (kv[1], kv[0]))


@dataclass(eq=False)
class WeightMatrix:
    """N x N synaptic weights; w[i, j] is the strength of pre i -> post j."""

    w: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"weight matrix must be square and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weight matrix contains non-finite entries")
        self.w = arr

    @classmethod
    def zeros(cls, n: int) -> "WeightMatrix":
        if n < 1:
            raise ValueError(f"weight matrix dimension must be >= 1, got {n}")
        return cls(np.zeros((n, n), dtype=float))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def copy(self) -> "WeightMatrix":
        return WeightMatrix(self.w.copy())


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class StdpParams:
    """Exponential-window STDP parameters.

    ``w_max`` optionally clips weights into [-w_max, w_max] after each
    update; it is off by default because short training runs cannot
    saturate (feedback-stabilisation rules are out of scope here).
    """

    a_plus: float = 0.01
    a_minus: float = 0.01
    tau_plus: float = 0.020
    tau_minus: float = 0.020
    w_max: float | None = None

    def __post_init__(self):
        for name in ("a_plus", "a_minus", "tau_plus", "tau_minus"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))
        if self.w_max is not None:
            object.__setattr__(self, "w_max", _require_positive("w_max", self.w_max))


@dataclass(frozen=True)
class LatencyParams:
    """Displacement decoding assumes this uniform motor velocity (units/s)."""

    assumed_velocity: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "assumed_velocity", _require_positive("assumed_velocity", self.assumed_velocity)
        )


@dataclass(frozen=True)
class Displacement:
    """Spatial displacement in world units; dz stays 0 for planar decoding.

    The public constructor converts each component to float and rejects one
    that is not finite. :func:`tempocode.latency.decode_displacement` builds
    its displacements through :meth:`_from_finite` instead, which trusts
    components it knows to be finite floats and checks none.
    """

    dx: float
    dy: float
    dz: float = 0.0

    def __post_init__(self):
        # The fields live in the instance dict, read and written there without getattr or a frozen setattr.
        components = self.__dict__
        for name in ("dx", "dy", "dz"):
            v = components[name] = float(components[name])
            if not math.isfinite(v):
                raise ValueError(f"displacement component {name} must be finite, got {v}")

    @classmethod
    def _from_finite(cls, dx: float, dy: float) -> "Displacement":
        """A planar displacement from finite float components, trusted and stored as given."""
        displacement = object.__new__(cls)
        displacement.__dict__.update(dx=dx, dy=dy, dz=0.0)
        return displacement


@dataclass(frozen=True, eq=False)
class Traversal:
    """Ordered sequence of timed contacts over one object surface.

    Contact times must be strictly increasing. Whether consecutive gaps
    exceed the encoder's packet span (so packets never overlap) depends on
    the encoder in use and is enforced at packetization time.

    The contact vectors are the rows of :attr:`features`, one read-only
    (contacts, neurons) block the traversal owns, so no caller's array can
    change it once it is validated; the dense baseline sums it as a
    one-trial block. The public constructor checks every contact and copies
    them into that block. :func:`tempocode.world.generate_traversal` builds
    its traversals through :meth:`_from_checked`, which trusts a block it
    has checked once.
    """

    contacts: tuple[tuple[np.ndarray, float], ...]
    features: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows, times = [], []
        dim = None
        prev_time = None
        for features, t in self.contacts:
            arr = as_features(features)
            if dim is None:
                dim = arr.size
            elif arr.size != dim:
                raise ValueError(f"contact dimensionality changed from {dim} to {arr.size}")
            t = float(t)
            if not math.isfinite(t):
                raise ValueError(f"contact time must be finite, got {t}")
            if prev_time is not None and t <= prev_time:
                raise ValueError(f"contact times must be strictly increasing: {prev_time} -> {t}")
            prev_time = t
            rows.append(arr)
            times.append(t)
        block = np.array(rows) if rows else np.empty((0, 0))
        block.flags.writeable = False
        object.__setattr__(self, "features", block)
        object.__setattr__(self, "contacts", tuple(zip(block, times)))

    @classmethod
    def _from_checked(cls, features: np.ndarray, times: list[float]) -> "Traversal":
        """A traversal over the rows of a finite (contacts, neurons) float block, trusted.

        ``times`` must be finite floats, strictly increasing. The contacts
        are the block's rows, and the block itself becomes
        :attr:`features`.
        """
        traversal = object.__new__(cls)
        object.__setattr__(traversal, "contacts", tuple(zip(features, times)))
        object.__setattr__(traversal, "features", features)
        return traversal

    def __len__(self) -> int:
        return len(self.contacts)


def _neuron_count(counts: list[int], model: str) -> int:
    """The one neuron count of a set of ``model``s, from each one's; ``ValueError`` on none, or counts that differ."""
    if not counts:
        raise ValueError(f"need at least one {model}")
    if len(set(counts)) > 1:
        raise ValueError(f"{model}s disagree on neuron count, got {sorted(set(counts))}")
    return counts[0]


def _one_trial(traversal: Traversal, counts: list[int], model: str) -> np.ndarray:
    """A traversal as a one-trial block, after the one check of a trial against its models' neuron ``counts``.

    No models, models of more than one count, an empty traversal and a traversal of another count raise ``ValueError``.
    """
    n = _neuron_count(counts, model)
    if not len(traversal):
        raise ValueError("cannot classify an empty traversal")
    if traversal.features.shape[1] != n:
        raise ValueError(f"the traversal has {traversal.features.shape[1]} neurons, but the {model}s have {n}")
    return traversal.features[None]
