"""Synthetic objects and noisy surface traversals.

The built-in world has three surface features (smooth, curved, edge) whose
canonical activation vectors deliberately sum to the same total over a
three-contact sweep, so order-blind accumulation cannot tell a left-to-right
traversal from its reverse. Sensor noise is i.i.d. gaussian per activation
component, drawn from the portable counter-based generator in
:mod:`tempocode.rng`; negative noisy activations are not clipped (they
simply fall below the encoder threshold).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import NoiseStream
from .types import Traversal

F_SMOOTH = (0.9, 0.2, 0.1)
F_CURVED = (0.2, 0.8, 0.2)
F_EDGE = (0.1, 0.2, 0.9)


@dataclass(frozen=True, eq=False)
class SyntheticObject:
    """An object's canonical left-to-right contacts: the rows of its own read-only block :attr:`features`."""

    label: str
    contacts: tuple[np.ndarray, ...]
    features: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.contacts:
            raise ValueError("synthetic object needs at least one contact")
        try:
            arrs = tuple(np.asarray(c, dtype=float) for c in self.contacts)
        except OverflowError:  # an integer too large for a double
            raise ValueError("contact vectors must be finite") from None
        if any(arr.ndim != 1 or arr.size != arrs[0].size for arr in arrs):
            raise ValueError("all contact vectors must share one dimensionality")
        if arrs[0].size == 0:
            raise ValueError(f"object {self.label!r} has contacts of zero neurons; a contact needs at least one")
        block = np.stack(arrs)
        if not np.isfinite(block).all():
            raise ValueError("contact vectors must be finite")
        block.flags.writeable = False
        object.__setattr__(self, "features", block)
        object.__setattr__(self, "contacts", tuple(block))

    @property
    def n_neurons(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class WorldParams:
    """Noise level and contact timing; the noise itself comes from the stream."""

    noise_sigma: float = 0.0
    inter_contact_interval: float = 0.020

    def __post_init__(self):
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (math.isfinite(self.inter_contact_interval) and self.inter_contact_interval > 0.0):
            raise ValueError(f"inter_contact_interval must be positive, got {self.inter_contact_interval}")


def builtin_objects() -> list[SyntheticObject]:
    """The five built-in objects.

    A and B share the same three features in opposite traversal orders (the
    discrimination pair); uniform / moderate / complex vary how much of the
    sweep repeats (the memory-adaptation triple).
    """
    s, c, e = F_SMOOTH, F_CURVED, F_EDGE
    return [
        SyntheticObject("A", (s, c, e)),
        SyntheticObject("B", (e, c, s)),
        SyntheticObject("uniform", (s, s, s)),
        SyntheticObject("moderate", (s, c, s)),
        SyntheticObject("complex", (s, c, e)),
    ]


def discrimination_pair() -> list[SyntheticObject]:
    """Objects A and B: identical features, opposite traversal direction."""
    return builtin_objects()[:2]


def complexity_triple() -> list[SyntheticObject]:
    """The uniform / moderate / complex objects."""
    return builtin_objects()[2:]


def generate_traversal(obj: SyntheticObject, params: WorldParams, stream: NoiseStream) -> Traversal:
    """One left-to-right traversal of ``obj`` with per-component sensor noise.

    Contact k happens at time k * inter_contact_interval with features
    canonical + sigma * z, z the stream's draw at (k, component).
    Identical (object, params, stream) always yields a bit-identical
    traversal, on a read-only (contacts, neurons) block.

    The whole traversal's noise is drawn as one
    :meth:`~tempocode.rng.NoiseStream.normal_grid`, which matches the
    scalar definition in ``tests/oracle.py`` bit for bit (see
    :mod:`tempocode.rng` for the exactness rule). The grid is this call's
    own copy, so sigma scales it and the object's block is added to it in
    place: each component is still ``(sigma * z) + canonical``, rounded
    once per operation. A ``stream``
    from :meth:`~tempocode.rng.NoiseStream.children` gives the same
    traversal as the lone stream it equals; the first traversal of a family
    draws the uniforms of every sibling, so a run of trials pays the integer
    mixing once.

    The noisy block is checked once as a whole, and the traversal is built
    on it without a per-contact check (:meth:`Traversal._from_checked`). The
    times ``k * interval`` rise strictly with ``k`` for a positive finite
    interval, so only the last can fail, by overflow. A block or time that
    fails goes through the public constructor, which raises its own error
    for the first bad contact.
    """
    values = obj.features
    if params.noise_sigma > 0.0:
        values = stream.normal_grid(*values.shape)
        # An overflow is not warned of: the public constructor below names the contact it spoils.
        with np.errstate(over="ignore"):
            values *= params.noise_sigma
            values += obj.features
        values.flags.writeable = False
    times = [k * params.inter_contact_interval for k in range(len(values))]
    if not (np.isfinite(values).all() and math.isfinite(times[-1])):
        return Traversal(tuple(zip(values, times)), label=obj.label)
    return Traversal._from_checked(values, times, obj.label)


def require_unique_labels(objects) -> None:
    """Reject two objects with one label.

    Accuracy is judged by label equality and the dense baseline groups
    trials by label, so a repeated label would merge two objects into one
    class and report a perfect score for a task nobody could solve.
    """
    seen = set()
    for obj in objects:
        if obj.label in seen:
            raise ValueError(f"object label {obj.label!r} is used by more than one object; labels must be unique")
        seen.add(obj.label)


def require_one_dimensionality(objects) -> None:
    """Reject objects whose contact vectors differ in length.

    Every object is learned and scored in one space of N neurons: the
    models are N x N matrices and the dense centroids N-vectors.
    """
    first = objects[0]
    for obj in objects[1:]:
        if obj.n_neurons != first.n_neurons:
            raise ValueError(
                f"object {obj.label!r} has {obj.n_neurons} neurons but {first.label!r} has "
                f"{first.n_neurons}; all objects must share one feature dimensionality"
            )


def load_objects(path: str | Path) -> list[SyntheticObject]:
    """Load user-supplied objects from JSON.

    The file holds either one object or a list of objects, each an object
    ``{"label": str, "contacts": [[...], ...]}``.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ValueError("objects file must hold one object or a non-empty list of objects")
    objects = []
    for entry in data:
        if not isinstance(entry, dict) or set(entry) != {"label", "contacts"}:
            raise ValueError("each object needs exactly the keys 'label' and 'contacts'")
        objects.append(SyntheticObject(str(entry["label"]), tuple(entry["contacts"])))
    require_one_dimensionality(objects)
    require_unique_labels(objects)
    return objects
