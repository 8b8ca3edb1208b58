"""Portable generator: reference vectors, stream discipline, moments, the libm route."""

import hashlib
import math

import numpy as np
import pytest

import oracle
from tempocode import rng
from tempocode.rng import NoiseStream, derive_seed, mix64


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        """First outputs for seed 0, from the published reference implementation."""
        states = np.arange(1, 4, dtype=np.uint64) * rng._GOLDEN_U64
        assert rng._mix64_u64(states).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_mix64_is_deterministic_bijection_sample(self):
        outs = {mix64(x) for x in range(10000)}
        assert len(outs) == 10000
        assert mix64(0) == 0  # documented fixed point; derive_seed offsets around it

    def test_uniforms_in_unit_interval(self):
        # The first 10,000 uniforms of the stream over seed 12345, by the array path.
        us = rng._unit_floats(rng._mix64_u64(np.uint64(12345) + np.arange(1, 10001, dtype=np.uint64) * rng._GOLDEN_U64))
        assert ((0.0 <= us) & (us < 1.0)).all()
        assert abs(np.mean(us) - 0.5) < 0.02

    def test_gaussian_moments(self):
        zs = NoiseStream(987654321).normal_vector(50000)
        assert abs(zs.mean()) < 0.02
        assert abs(zs.std() - 1.0) < 0.02


class TestDeriveSeed:
    # test_oracle compares every derived seed with the oracle's, masking to 64 bits included.
    def test_distinct_indices_distinct_seeds(self):
        seeds = {derive_seed(42, a, b) for a in range(30) for b in range(30)}
        assert len(seeds) == 900


class TestNoiseStream:
    def test_counter_based_order_independence(self):
        # Draw t is the same whatever else is drawn with it, and in whatever order.
        s = NoiseStream(7, 0, 1)
        assert s.normal_vector(10)[:5].tobytes() == s.normal_vector(5).tobytes()
        assert s.normal_grid(4, 3)[:2, :2].tobytes() == s.normal_grid(2, 2).tobytes()

    def test_prefix_separates_streams(self):
        a = NoiseStream(7, 0, 0)
        b = NoiseStream(7, 0, 1)
        assert a.normal_vector(5).tolist() != b.normal_vector(5).tolist()

    def test_independent_substreams_uncorrelated(self):
        za = NoiseStream(11, 0, 0).normal_vector(10000)
        zb = NoiseStream(11, 0, 1).normal_vector(10000)
        rho = np.corrcoef(za, zb)[0, 1]
        assert abs(rho) < 0.05


class TestNormalGrid:
    def test_uint64_mixing_matches_python_ints(self):
        xs = [0, 1, 2, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1] + [mix64(i) for i in range(100)]
        mixed = rng._mix64_u64(np.array(xs, dtype=np.uint64))
        assert mixed.tolist() == [mix64(x) for x in xs]

    def test_degenerate_shapes(self):
        stream = NoiseStream(42, 0)
        assert stream.normal_grid(0, 5).shape == (0, 5)
        assert stream.normal_grid(3, 0).shape == (3, 0)
        assert stream.normal_grid(1, 1).tolist() == [[oracle.normal(derive_seed(42, 0), 0, 0)]]


class TestZeroUniform:
    """u1 == 0 is replaced by 2**-53 in the Box-Muller transform every draw takes."""

    EXPECTED = math.sqrt(-2.0 * math.log(2.0**-53)) * math.cos(2.0 * math.pi * 0.25)

    def test_shared_transform_substitutes(self):
        assert rng._box_muller([0.0, 2.0**-53], [0.25, 0.25]).tolist() == [self.EXPECTED, self.EXPECTED]

    def test_array_path(self, monkeypatch):
        monkeypatch.setattr(rng, "_unit_floats", lambda u64: np.zeros(u64.shape))
        grid = NoiseStream(5).normal_grid(2, 3)
        zero_zero = math.sqrt(-2.0 * math.log(2.0**-53)) * math.cos(0.0)
        assert grid.tobytes() == np.full((2, 3), zero_zero).tobytes()


class TestChildren:
    """A family of children against lone per-trial streams, compared as bytes (``test_oracle`` draws the rest)."""

    @staticmethod
    def _lone(seed, prefix, n):
        return [NoiseStream(seed, *prefix, t) for t in range(n)]

    def test_children_read_out_of_order(self):
        children = NoiseStream(42, 0, 1).children(7)
        order = [5, 0, 6, 2, 2, 3, 1, 4]
        got = {t: children[t].normal_grid(3, 3).tobytes() for t in order}
        lone = self._lone(42, (0, 1), 7)
        assert got == {t: lone[t].normal_grid(3, 3).tobytes() for t in order}

    def test_one_family_two_shapes_in_turn(self):
        children = NoiseStream(7, 1, 0).children(4)
        lone = self._lone(7, (1, 0), 4)
        for rows, cols in [(3, 3), (20, 64), (3, 3), (5, 1), (20, 64)]:
            for child, stream in zip(children, lone):
                assert child.normal_grid(rows, cols).tobytes() == stream.normal_grid(rows, cols).tobytes()

    def test_no_children(self):
        assert NoiseStream(42, 0, 0).children(0) == []


class TestFamilyNormalsAcrossChunks:
    """One Box-Muller pass per family, run in chunks (``test_oracle`` compares its draws as bytes)."""

    def test_zero_u1_past_the_first_chunk(self, monkeypatch):
        original = rng._unit_floats
        zeroed = [rng._CHUNK + 5, 2 * rng._CHUNK - 1, 2 * rng._CHUNK]
        captured = []

        def with_zeros(u64):
            floats = original(u64)
            floats[0].reshape(-1)[zeroed] = 0.0
            captured.append(floats.copy())
            return floats

        monkeypatch.setattr(rng, "_unit_floats", with_zeros)
        children = NoiseStream(7, 0).children(3)
        got = np.stack([child.normal_grid(4, 700) for child in children])
        ((u1, u2),) = captured
        assert got.tobytes() == _scalar_box_muller(u1, u2).reshape(got.shape).tobytes()
        substituted = math.sqrt(-2.0 * math.log(2.0**-53))
        for i in zeroed:
            assert got.reshape(-1)[i] == substituted * math.cos(2.0 * math.pi * u2.reshape(-1)[i])

    def test_grid_is_a_copy(self):
        child = NoiseStream(42, 0).children(2)[1]
        first = child.normal_grid(3, 3)
        first[:] = 0.0
        assert child.normal_grid(3, 3).tobytes() == NoiseStream(42, 0, 1).normal_grid(3, 3).tobytes()


def _scalar_box_muller(u1, u2):
    """The oracle's Box-Muller, with :mod:`math`'s ``log`` and ``cos``, element by element."""
    return np.array(list(map(oracle.box_muller, np.ravel(u1).tolist(), np.ravel(u2).tolist()))).reshape(np.shape(u1))


def _unit_samples():
    gen = np.random.default_rng(5)
    random = gen.random(2 * rng._CHUNK + 3)
    random[rng._CHUNK + 1] = 0.0
    return [
        random,
        np.linspace(0.0, 1.0, 300_001)[:-1],
        # The uniforms' own grid of multiples of 2**-53, around each quarter turn.
        *(q + np.arange(-20_000, 20_000) * 2.0**-53 for q in (0.25, 0.5, 0.75)),
        np.arange(40_000) * 2.0**-53,
        1.0 - np.arange(1, 40_001) * 2.0**-53,
        np.array([0.0, -0.0, np.finfo(float).smallest_subnormal, np.finfo(float).tiny, 2.0**-53, 0.5 - 2.0**-53]),
    ]


class TestLibmPerElement:
    """``_box_muller`` equals the scalar formula with :mod:`math`'s ``log`` and ``cos``, as bits.

    numpy's contiguous float64 ``log`` differs from libm in the last bit on
    some inputs on an AVX512F Xeon with numpy 2.4.6, so there these samples
    also catch a slide back to it. Its ``cos`` matches libm there; the
    cosine samples catch any cosine that is not libm's where it does not.
    """

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_element_follows_math_log(self):
        # At a cosine of exactly 1.0 each output is its radius, sqrt(-2 log u1).
        for u1 in _unit_samples():
            u2 = np.zeros(u1.shape)
            assert rng._box_muller(u1, u2).tobytes() == _scalar_box_muller(u1, u2).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cosines_match_math_cos(self):
        for u2 in _unit_samples():
            u1 = np.full(u2.shape, 0.5)
            assert rng._box_muller(u1, u2).tobytes() == _scalar_box_muller(u1, u2).tobytes()

    def test_every_call_overlaps_its_output(self, monkeypatch):
        # What the route and its pad slot are for, on any CPU: where the probe passed it, the
        # output starts inside the input, even for one element, and both lie in the caller's buffer.
        monkeypatch.setattr(rng, "_overlap_is_libm", lambda: True)
        calls = []

        def spy(values, out=None):
            calls.append(out is not None and np.shares_memory(values, out))
            return np.log(values, out=out)

        for size in (1, 2, 5):
            buf = _padded(np.full(size, 0.5))
            assert np.shares_memory(rng._libm(spy, buf, size), buf)
        assert calls == [True, True, True]

    def test_one_element_call_gives_libms_log(self):
        # A lone element does not overlap its output; the pad slot after it keeps it off the vector kernel.
        u1, u2 = oracle.uniforms(derive_seed(NoiseStream(42, 0, 0, 0)._seed, 12, 2), 2)
        assert u1 == 0.39842633484951917
        assert rng._libm(np.log, _padded([u1]), 1).tobytes() == np.array([math.log(u1)]).tobytes()
        assert rng._box_muller([u1], [u2]).tolist() == [oracle.box_muller(u1, u2)]


def _padded(values):
    """An :func:`rng._padded` buffer holding ``values`` as its inputs, NaN in its spare slots."""
    values = np.asarray(values, dtype=float)
    buf, inputs = rng._padded(values.size)
    buf.fill(np.nan)
    inputs[...] = values
    return buf


class TestInPlaceRoute:
    """``_libm`` works in its caller's buffer, with ``_per_element``'s bits, at every size and on both routes."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [0, 1, 2, rng._CHUNK - 1, rng._CHUNK, rng._CHUNK + 1, 10_700])
    def test_every_size_matches_per_element(self, size, libm_route):
        u = np.random.default_rng(size).random(size)
        for ufunc, x in ((np.log, u), (np.exp, -745.0 * u), (np.cos, 2.0 * math.pi * u)):
            buf = _padded(x)
            got = rng._libm(ufunc, buf, size)
            assert got.base is buf
            assert got.tobytes() == rng._per_element(ufunc, x).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_pad_slot_is_set_whatever_the_buffer_held(self):
        # A reused or np.empty buffer may hold anything in its pad slot; the overlap route runs
        # over it as 1.0, so a -1.0 there gives no log of a negative, and a 1e6 no exp that overflows.
        for ufunc, junk in ((np.log, -1.0), (np.exp, 1e6)):
            buf = _padded([0.5, 0.25])
            buf[-1] = junk
            assert rng._libm(ufunc, buf, 2).tobytes() == rng._per_element(ufunc, np.array([0.5, 0.25])).tobytes()


def _probe_inputs():
    """The probe's ``(ufunc, inputs)`` pairs, from the oracle's generator."""
    u = np.array(oracle.uniforms(0, rng._PROBE_SIZE))
    return ((np.log, u), (np.exp, -745.0 * u), (np.cos, 2.0 * math.pi * u))


@pytest.fixture
def fresh_verdict():
    """Forget the probe's verdict before and after a test, so that no test sees another's."""
    rng._overlap_is_libm.cache_clear()
    yield
    rng._overlap_is_libm.cache_clear()


class TestLibmRoute:
    """The probe behind ``rng._libm`` and the ``math`` fallback it chooses on a failure."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_route_gives_maths_bits_on_the_probe_inputs(self):
        for ufunc, x in _probe_inputs():
            fn = getattr(math, ufunc.__name__)
            want = np.array([fn(v) for v in x.tolist()])
            assert rng._libm(ufunc, _padded(x), x.size).tobytes() == want.tobytes()
            assert rng._per_element(ufunc, x).tobytes() == want.tobytes()

    def test_probe_rejects_the_contiguous_kernels(self):
        differing = sum(
            int((ufunc(x) != np.array([getattr(math, ufunc.__name__)(v) for v in x.tolist()])).sum())
            for ufunc, x in _probe_inputs()
        )
        if differing == 0:
            pytest.skip("numpy's contiguous kernels equal libm on every probe input here")
        assert not rng._probe(lambda ufunc, buf, n: ufunc(buf[1 : n + 1]))

    def test_patched_math_cannot_flip_the_verdict(self, monkeypatch, fresh_verdict):
        verdict = rng._overlap_is_libm()
        rng._overlap_is_libm.cache_clear()
        log, exp, cos = math.log, math.exp, math.cos
        monkeypatch.setattr(math, "log", lambda x: log(x) - 1.0)
        monkeypatch.setattr(math, "exp", lambda x: 2.0 * exp(x))
        monkeypatch.setattr(math, "cos", lambda x: cos(x) + 1.0)
        u = np.linspace(0.01, 0.99, 99)
        got = rng._libm(np.log, _padded(u), u.size)
        assert rng._overlap_is_libm() == verdict
        monkeypatch.undo()
        assert got.tobytes() == np.array([math.log(v) for v in u.tolist()]).tobytes()

    def test_after_a_failed_probe_every_path_keeps_maths_bits(self, monkeypatch):
        # normal_grid's and _increments' fallback bits are pinned by TestPinnedBits and test_stdp.
        monkeypatch.setattr(rng, "_overlap_is_libm", lambda: False)
        expected = [oracle.normal(derive_seed(7, 2, 1), t) for t in range(300)]
        assert NoiseStream(7, 2, 1).normal_vector(300).tobytes() == np.array(expected).tobytes()
        for u in _unit_samples():
            assert rng._box_muller(u, u[::-1]).tobytes() == _scalar_box_muller(u, u[::-1]).tobytes()


class TestPinnedBits:
    """sha256 of fixed draws, so that a numpy or libm upgrade that moves any bit fails here."""

    def test_normal_grid(self, libm_route):
        digest = hashlib.sha256(NoiseStream(42, 0, 0).normal_grid(20, 64).tobytes()).hexdigest()
        assert digest == "3eb80c56affdff28ed32f7e8ede89105ce1a7223ca42d1c1a91ccac7401105ba"

    def test_normal_vector(self, libm_route):
        digest = hashlib.sha256(NoiseStream(7, 2, 1).normal_vector(300).tobytes()).hexdigest()
        assert digest == "470131cfc8f42df827535354e077888397a72f82c847c086675329f0235862b9"


class TestNormalVector:
    def test_empty(self):
        assert NoiseStream(42).normal_vector(0).shape == (0,)
