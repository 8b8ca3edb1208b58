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
draws a whole grid of substreams in one array pass, with the bits of the
scalar definition: one SplitMix64 stream and one Box-Muller transform per
index tuple, in Python ints and floats, as ``tests/oracle.py`` writes it
out and the tests compare. The exactness rule that makes this hold: the
SplitMix64 integer mixing runs in numpy ``uint64``, where wrapping
multiply, xor and shift are exact; only correctly rounded float operations
(``+ - * /`` and ``sqrt``) run in numpy otherwise; one Box-Muller transform
serves every draw, and works through its input in chunks of about 4k
elements; and ``log`` and ``cos`` are the C library's, through
:func:`_libm`, the one route this package takes to libm (STDP's ``exp``
takes it too). numpy's float64 transcendentals are its own SIMD kernels,
chosen per CPU, and differ from libm in the last bit on some inputs. But a float64 ``log``,
``exp`` or ``cos`` whose output starts one element before its input
(``ufunc(buf[1:], out=buf[:-1])``) stands its vector kernel aside and runs
numpy's scalar loop, which calls libm once per element, in C. So the
route works in place: the caller writes its ``n`` inputs into the input
view of a :func:`_padded` buffer, ``buf[1 : n + 1]`` with one spare slot
at each end, and gets the results back as ``buf[:n]``, with nothing
copied in or out. A one-element input alone would not overlap its
output, so the route sets the end slot to 1.0 and runs over it too, which
makes each call overlap, whatever its size.
The first call in a process probes the route against :mod:`math` on fixed
inputs; if any bit differs, as on a numpy build whose vector kernels
accept the overlap, every later call takes :mod:`math` per element
instead, into the same buffer.
:meth:`NoiseStream.normal_vector` is the one-index form, whose ``[t]`` is the
draw at index ``t``, with which the lambda experiment draws each object's
whole error trajectory at once.

:meth:`NoiseStream.children` extends this across sibling streams: child
``t`` is ``NoiseStream(seed, *prefix, t)``, and the first ``normal_grid``
call on any child runs the integer chain and the Box-Muller transform for
every child at once; each child then copies its own slice, bit-identical
to a lone stream's grid. The price is memory: the family keeps its
normals, 8 bytes per draw, for as long as any child lives (one grid shape
at a time).

The overlap route, its probe, NEP 50's promotion rules for the
``uint64`` mixing, and the in-order column fold of ``np.einsum`` that
scores an inference step (``inference._pair_scores``) were verified on
numpy 2.4.6; no numpy 1.x was tried. The ``numpy>=2.4`` of
``pyproject.toml`` names the only numpy series these bits were checked
on, an install floor rather than a promise: on another numpy the probe still
guards the libm route, and the pinned digests of ``tests/test_rng.py``
and the oracle tests of ``tests/test_oracle.py`` show whether the draws
and the scores kept their bits.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import starmap

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_TWO_POW_NEG53 = 2.0**-53
_TWO_PI = 2.0 * math.pi

#: Elements per Box-Muller chunk: large enough to amortise numpy's per-call
#: cost, small enough that the two padded buffers the chunks reuse stay at
#: about 32 kB each.
_CHUNK = 4096

#: The :mod:`math` function behind each ufunc :func:`_libm` serves, bound at
#: import, so that neither the probe nor the fallback can follow a later
#: rebinding of :mod:`math`.
_MATH = {np.log: math.log, np.exp: math.exp, np.cos: math.cos}

#: Inputs per function of the probe behind :func:`_libm`. On an AVX512F
#: Xeon, numpy 2.4.6's contiguous ``log`` and ``exp`` differ from glibc's on
#: 8 and 81 of them, and the probe adds about 1 ms to a process.
_PROBE_SIZE = 2048

_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_GOLDEN_U64 = np.uint64(_GOLDEN)


def mix64(x: int) -> int:
    """SplitMix64 output scrambler: a bijection on 64-bit integers.

    Note mix64(0) == 0; index hashing below offsets inputs so the zero fixed
    point never collapses distinct index tuples.
    """
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_u64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """:func:`mix64` over a ``uint64`` array, in place; products wrap modulo 2**64.

    ``tmp`` is a scratch buffer of ``z``'s shape, allocated when omitted.
    Returns ``z``.
    """
    if tmp is None:
        tmp = np.empty_like(z)
    for shift, multiplier in ((30, _MIX_A_U64), (27, _MIX_B_U64)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= multiplier
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _unit_floats(u64: np.ndarray) -> np.ndarray:
    """A SplitMix64 output's double in [0, 1), its top 53 bits, over a ``uint64`` array (exact).

    Shifts ``u64`` in place.
    """
    u64 >>= np.uint64(11)
    floats = u64.astype(np.float64)
    floats *= _TWO_POW_NEG53
    return floats


def _child_seeds(parent: int, n: int) -> np.ndarray:
    """``mix64(parent ^ mix64(t + 1))`` for ``t`` in ``0 .. n-1``: one step of the seed chain."""
    keys = _mix64_u64(np.arange(1, n + 1, dtype=np.uint64))
    keys ^= np.uint64(parent)
    return _mix64_u64(keys)


def _seeded_uniforms(states: np.ndarray) -> np.ndarray:
    """The first two uniforms of the SplitMix64 streams seeded by ``states[0]``.

    ``states`` has shape ``(2, ...)`` and is overwritten.
    """
    tmp = np.empty_like(states)
    # A SplitMix64 stream's first two states are its seed plus one and two golden increments.
    states[0] += _GOLDEN_U64
    np.add(states[0], _GOLDEN_U64, out=states[1])
    _mix64_u64(states, tmp)
    del tmp  # freed before the float copy, so at most two draw-sized buffers live at once
    return _unit_floats(states)


def _grid_uniforms(member_seeds: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The ``(2, members, rows, cols)`` uniforms behind every member's ``normal_grid``.

    ``[:, m, k, c]`` are the first two uniforms of the stream seeded
    by ``derive_seed(member_seeds[m], k, c)``. A row and a column index hash
    to the same ``mix64(index + 1)``, so one key array serves both.
    """
    index_keys = _mix64_u64(np.arange(1, max(rows, cols) + 1, dtype=np.uint64))
    row_seeds = _mix64_u64(_mix64_u64(member_seeds.copy())[:, None] ^ index_keys[:rows])
    states = np.empty((2, member_seeds.size, rows, cols), dtype=np.uint64)
    np.bitwise_xor(row_seeds[:, :, None], index_keys[:cols], out=states[0])
    _mix64_u64(states[0], states[1])
    return _seeded_uniforms(states)


def _padded(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A buffer for :func:`_libm` over ``n`` inputs, and the view of it that the caller writes them into.

    The buffer has one spare slot at each end; the view is ``n`` long.
    """
    buf = np.empty(n + 2)
    return buf, buf[1 : n + 1]


def _in_place(ufunc, buf: np.ndarray, n: int) -> np.ndarray:
    """``ufunc`` over ``buf[1 : n + 1]`` through numpy's scalar loop, libm per element; returns ``buf[:n]``.

    The output starts one slot before the input in ``buf``, so numpy's
    vector kernel stands aside. The pad slot ``buf[n + 1]`` is set to 1.0
    and taken in too, so that a one-element call overlaps as well.
    """
    buf[n + 1] = 1.0
    ufunc(buf[1 : n + 2], out=buf[: n + 1])
    return buf[:n]


def _per_element(ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc``'s :mod:`math` function over a contiguous 1-D float array, one call per element.

    ``starmap`` over ``zip`` hands each call one 1-tuple that ``zip``
    reuses; ``map`` would build one per ``math.log`` call, since it takes an
    optional base.
    """
    return np.fromiter(starmap(_MATH[ufunc], zip(memoryview(values))), float, values.size)


def _probe(route) -> bool:
    """Whether ``route(ufunc, buf, n)``, in place like :func:`_in_place`, gives :mod:`math`'s bits on fixed inputs.

    The inputs are the first ``_PROBE_SIZE`` uniforms ``u`` of the SplitMix64
    stream over seed 0 (``tests/oracle.py``), taken as ``log(u)``,
    ``exp(-745 u)`` (down to libm's subnormal results) and ``cos(2 pi u)``.
    """
    u = _unit_floats(_mix64_u64(np.arange(1, _PROBE_SIZE + 1, dtype=np.uint64) * _GOLDEN_U64))
    cases = ((np.log, u), (np.exp, -745.0 * u), (np.cos, _TWO_PI * u))

    def routed(ufunc, x):
        buf, inputs = _padded(x.size)
        inputs[...] = x
        return route(ufunc, buf, x.size)

    return all(routed(ufunc, x).tobytes() == _per_element(ufunc, x).tobytes() for ufunc, x in cases)


@cache
def _overlap_is_libm() -> bool:
    """The probe's verdict on :func:`_in_place`, taken once per process."""
    return _probe(_in_place)


def _libm(ufunc, buf: np.ndarray, n: int) -> np.ndarray:
    """``np.log``, ``np.exp`` or ``np.cos`` over ``buf[1 : n + 1]``, in place, with libm's bits; returns ``buf[:n]``.

    ``buf`` is a :func:`_padded` buffer of at least ``n`` inputs, which the
    call overwrites. The one route to libm (see the module docstring):
    :func:`_in_place` where the probe passed it, else :mod:`math` per
    element, written into the same slots.
    """
    if _overlap_is_libm():
        return _in_place(ufunc, buf, n)
    buf[:n] = _per_element(ufunc, buf[1 : n + 1])
    return buf[:n]


def _box_muller(u1s, u2s) -> np.ndarray:
    """Cosine-branch Box-Muller over paired uniforms, with libm's bits.

    A zero ``u1`` is replaced by 2**-53 so the logarithm stays finite.
    ``log`` and ``cos`` come from :func:`_libm`. ``-2.0 *``, ``sqrt``,
    ``2 pi *`` and the product run in numpy, where each is correctly
    rounded, so every value equals the scalar formula's, as
    ``tests/oracle.py`` writes it. The work runs in chunks of ``_CHUNK``
    elements, which reuse two padded buffers, one per function, so no
    chunk allocates. Every draw of the package comes through here.
    """
    u1s = np.asarray(u1s, dtype=float)
    u2s = np.asarray(u2s, dtype=float)
    out = np.empty(u1s.shape)
    flat1, flat2, flat_out = u1s.reshape(-1), u2s.reshape(-1), out.reshape(-1)
    size = min(flat_out.size, _CHUNK)
    (logs, log_inputs), (cosines, cos_inputs) = _padded(size), _padded(size)
    zero = np.empty(size, dtype=bool)
    for start in range(0, flat_out.size, _CHUNK):
        u1, u2 = flat1[start : start + _CHUNK], flat2[start : start + _CHUNK]
        n = u1.size
        np.copyto(log_inputs[:n], u1)
        np.copyto(log_inputs[:n], _TWO_POW_NEG53, where=np.equal(u1, 0.0, out=zero[:n]))
        radii = _libm(np.log, logs, n)
        np.sqrt(np.multiply(radii, -2.0, out=radii), out=radii)
        np.multiply(u2, _TWO_PI, out=cos_inputs[:n])
        np.multiply(radii, _libm(np.cos, cosines, n), out=flat_out[start : start + n])
    return out


def derive_seed(seed: int, *indices: int) -> int:
    """Hash integer indices into a master seed, yielding a substream seed.

    The chain is h = mix64(seed); h = mix64(h ^ mix64(index_i + 1)) for each
    index. The +1 offset keeps index 0 away from mix64's zero fixed point.
    """
    h = mix64(seed & _MASK64)
    for ix in indices:
        h = mix64(h ^ mix64((int(ix) + 1) & _MASK64))
    return h


class _Family:
    """Seeds of sibling noise streams and their one cached grid of normals.

    The cache is a single ``(shape, normals)`` tuple, replaced whole, so a
    reader never pairs one shape with another shape's normals.
    """

    __slots__ = ("seeds", "_cache")

    def __init__(self, seeds: np.ndarray):
        self.seeds = seeds
        self._cache: tuple[tuple[int, int], np.ndarray] | None = None

    def normals(self, rows: int, cols: int) -> np.ndarray:
        """The ``(members, rows, cols)`` normals of every member, transformed once."""
        cache = self._cache
        if cache is None or cache[0] != (rows, cols):
            u1, u2 = _grid_uniforms(self.seeds, rows, cols)
            cache = ((rows, cols), _box_muller(u1, u2))
            self._cache = cache
        return cache[1]


class NoiseStream:
    """Family of independent gaussian substreams below a common prefix.

    ``NoiseStream(seed, phase, obj, trial).normal_grid(contacts, components)[k, c]``
    is the one standard-normal value owned by the full index tuple
    ``(seed, phase, obj, trial, k, c)``. Each draw reseeds from the hashed
    indices, so the scheme is counter-based: values do not depend on call
    order, and disjoint prefixes never share state.
    """

    def __init__(self, seed: int, *prefix: int):
        self._seed = derive_seed(seed, *prefix) if prefix else mix64(seed & _MASK64)
        self._family: _Family | None = None
        self._member = 0

    def children(self, n: int) -> list[NoiseStream]:
        """Streams ``0 .. n-1`` below this one, sharing one grid family.

        Child ``t`` equals ``NoiseStream(seed, *prefix, t)`` in every draw.
        """
        seeds = _child_seeds(self._seed, n)
        family = _Family(seeds)
        kids = []
        for t, child_seed in enumerate(seeds.tolist()):
            child = object.__new__(NoiseStream)
            child._seed, child._family, child._member = child_seed, family, t
            kids.append(child)
        return kids

    def normal_vector(self, count: int) -> np.ndarray:
        """The length-``count`` array whose ``[t]`` is the draw at index ``t``."""
        states = np.empty((2, count), dtype=np.uint64)
        states[0] = _child_seeds(mix64(self._seed), count)
        return _box_muller(*_seeded_uniforms(states))

    def normal_grid(self, rows: int, cols: int) -> np.ndarray:
        """The ``(rows, cols)`` array whose ``[k, c]`` is the draw at indices ``(k, c)``.

        A lone stream is a family of one; a child copies its slice of the
        normals its family draws for all members at once.
        """
        if self._family is None:
            self._family = _Family(np.array([self._seed], dtype=np.uint64))
        return self._family.normals(rows, cols)[self._member].copy()
