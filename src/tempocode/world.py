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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import NoiseStream
from .types import Traversal

F_SMOOTH = (0.9, 0.2, 0.1)
F_CURVED = (0.2, 0.8, 0.2)
F_EDGE = (0.1, 0.2, 0.9)


@dataclass(frozen=True)
class SyntheticObject:
    """An object as its canonical left-to-right contact sequence."""

    label: str
    contacts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.contacts:
            raise ValueError("synthetic object needs at least one contact")
        arrs = tuple(np.asarray(c, dtype=float) for c in self.contacts)
        dim = arrs[0].size
        for arr in arrs:
            if arr.ndim != 1 or arr.size != dim:
                raise ValueError("all contact vectors must share one dimensionality")
            if not np.all(np.isfinite(arr)):
                raise ValueError("contact vectors must be finite")
        object.__setattr__(self, "contacts", arrs)

    @property
    def n_neurons(self) -> int:
        return self.contacts[0].size


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
    s, c, e = np.array(F_SMOOTH), np.array(F_CURVED), np.array(F_EDGE)
    return [
        SyntheticObject("A", (s.copy(), c.copy(), e.copy())),
        SyntheticObject("B", (e.copy(), c.copy(), s.copy())),
        SyntheticObject("uniform", (s.copy(), s.copy(), s.copy())),
        SyntheticObject("moderate", (s.copy(), c.copy(), s.copy())),
        SyntheticObject("complex", (s.copy(), c.copy(), e.copy())),
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
    canonical + sigma * stream.normal(k, component). Identical (object,
    params, stream) always yields a bit-identical traversal.

    The whole traversal's noise is drawn as one
    :meth:`~tempocode.rng.NoiseStream.normal_grid`, which matches the scalar
    ``stream.normal`` bit for bit (see :mod:`tempocode.rng` for the exactness
    rule), and the noise is added elementwise, so each component is still
    ``canonical + (sigma * z)`` rounded once per operation. A ``stream`` from
    :meth:`~tempocode.rng.NoiseStream.children` gives the same traversal as
    the lone stream it equals; the first traversal of a family draws the
    uniforms of every sibling, so a run of trials pays the integer mixing
    once.
    """
    values = np.array(obj.contacts)
    if params.noise_sigma > 0.0:
        values += params.noise_sigma * stream.normal_grid(*values.shape)
    contacts = tuple((row, k * params.inter_contact_interval) for k, row in enumerate(values))
    return Traversal(contacts, motor_direction=0.0, label=obj.label)


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
        objects.append(
            SyntheticObject(str(entry["label"]), tuple(np.asarray(c, dtype=float) for c in entry["contacts"]))
        )
    dim = objects[0].n_neurons
    for obj in objects:
        if obj.n_neurons != dim:
            raise ValueError("all objects must share one feature dimensionality")
    require_unique_labels(objects)
    return objects
