"""Portable, counter-based random number generation.

Every noise value in this package is derived from a 64-bit master seed plus
a tuple of integer indices (trial, contact, component, ...). The generator is
SplitMix64 (Steele/Lea/Flood; the public-domain constants below), chosen
because it is trivial to reimplement bit-exactly in any language. Platform
default generators are deliberately not used anywhere in the library, so two
implementations given the same seed produce the same simulation byte for byte.

Gaussians come from the Box-Muller transform applied to the SplitMix64
uniform stream (cosine branch only, one gaussian per substream).

Because the scheme is addressed by index, :meth:`NoiseStream.normal_grid`
draws a whole grid of substreams in one array pass and gives the same bits
as calling :meth:`NoiseStream.normal` per element, which stays as the scalar
reference. The exactness rule that makes this hold: the SplitMix64 integer
mixing runs in numpy ``uint64``, where wrapping multiply, xor and shift are
exact; ``log`` and ``cos`` come from :mod:`math`, one element at a time,
because numpy's vectorised transcendentals may differ by an ulp; only
correctly rounded float operations (``+ - * /`` and ``sqrt``) are used
otherwise; and the scalar and array paths share one Box-Muller transform.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_TWO_POW_NEG53 = 2.0**-53
_TWO_PI = 2.0 * math.pi

_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
# The states of a SplitMix64 stream's first two steps are seed + 1 and + 2 golden increments.
_TWO_STEPS = np.array([_GOLDEN, (2 * _GOLDEN) & _MASK64], dtype=np.uint64)[:, None, None]


def mix64(x: int) -> int:
    """SplitMix64 output scrambler: a bijection on 64-bit integers.

    Note mix64(0) == 0; index hashing below offsets inputs so the zero fixed
    point never collapses distinct index tuples.
    """
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_u64(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a ``uint64`` array; products wrap modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_A_U64
    z = (z ^ (z >> np.uint64(27))) * _MIX_B_U64
    return z ^ (z >> np.uint64(31))


def _unit_floats(u64: np.ndarray) -> np.ndarray:
    """:meth:`SplitMix64.next_float` over a ``uint64`` array (exact: 53 bits)."""
    return (u64 >> np.uint64(11)).astype(np.float64) * _TWO_POW_NEG53


def _box_muller(u1s, u2s) -> list[float]:
    """Cosine-branch Box-Muller over paired uniforms, with libm per element.

    A zero ``u1`` is replaced by 2**-53 so the logarithm stays finite. The
    scalar and the array paths both come through here.
    """
    return [
        math.sqrt(-2.0 * math.log(u1 if u1 != 0.0 else _TWO_POW_NEG53)) * math.cos(_TWO_PI * u2)
        for u1, u2 in zip(u1s, u2s)
    ]


def derive_seed(seed: int, *indices: int) -> int:
    """Hash integer indices into a master seed, yielding a substream seed.

    The chain is h = mix64(seed); h = mix64(h ^ mix64(index_i + 1)) for each
    index. The +1 offset keeps index 0 away from mix64's zero fixed point.
    """
    h = mix64(seed & _MASK64)
    for ix in indices:
        h = mix64(h ^ mix64((int(ix) + 1) & _MASK64))
    return h


class SplitMix64:
    """Sequential SplitMix64 stream over a given seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * _TWO_POW_NEG53

    def next_gauss(self) -> float:
        """Standard normal via Box-Muller (cosine branch)."""
        u1 = self.next_float()
        u2 = self.next_float()
        return _box_muller((u1,), (u2,))[0]


class NoiseStream:
    """Family of independent gaussian substreams below a common prefix.

    ``NoiseStream(seed, phase, obj, trial).normal(contact, component)`` draws
    the one standard-normal value owned by that full index tuple. Each draw
    reseeds from the hashed indices, so the scheme is counter-based: values
    do not depend on call order, and disjoint prefixes never share state.
    """

    def __init__(self, seed: int, *prefix: int):
        self._seed = derive_seed(seed, *prefix) if prefix else mix64(seed & _MASK64)

    def normal(self, *indices: int) -> float:
        return SplitMix64(derive_seed(self._seed, *indices)).next_gauss()

    def normal_grid(self, rows: int, cols: int) -> np.ndarray:
        """The ``(rows, cols)`` array whose ``[k, c]`` is ``normal(k, c)``, bit for bit.

        Runs the :func:`derive_seed` chain and the two ``next_u64`` steps of
        every element at once in ``uint64``. A row and a column index hash
        to the same ``mix64(index + 1)``, so one key array serves both.
        """
        index_keys = _mix64_u64(np.arange(1, max(rows, cols) + 1, dtype=np.uint64))
        row_seeds = _mix64_u64(np.uint64(mix64(self._seed)) ^ index_keys[:rows])
        seeds = _mix64_u64(row_seeds[:, None] ^ index_keys[None, :cols])
        u1, u2 = _unit_floats(_mix64_u64(seeds + _TWO_STEPS))
        return np.array(_box_muller(u1.ravel().tolist(), u2.ravel().tolist())).reshape(rows, cols)
