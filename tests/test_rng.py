"""Portable generator: reference vectors, stream discipline, moments."""

import math

import numpy as np
import pytest

from tempocode import rng
from tempocode.rng import NoiseStream, SplitMix64, derive_seed, mix64


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        """First outputs for seed 0, from the published reference implementation."""
        gen = SplitMix64(0)
        assert gen.next_u64() == 0xE220A8397B1DCDAF
        assert gen.next_u64() == 0x6E789E6AA1B965F4
        assert gen.next_u64() == 0x06C45D188009454F

    def test_mix64_is_deterministic_bijection_sample(self):
        outs = {mix64(x) for x in range(10000)}
        assert len(outs) == 10000
        assert mix64(0) == 0  # documented fixed point; derive_seed offsets around it

    def test_uniforms_in_unit_interval(self):
        gen = SplitMix64(12345)
        us = [gen.next_float() for _ in range(10000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert abs(np.mean(us) - 0.5) < 0.02

    def test_gaussian_moments(self):
        gen = SplitMix64(987654321)
        zs = np.array([gen.next_gauss() for _ in range(50000)])
        assert abs(zs.mean()) < 0.02
        assert abs(zs.std() - 1.0) < 0.02


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_distinct_indices_distinct_seeds(self):
        seeds = {derive_seed(42, a, b) for a in range(30) for b in range(30)}
        assert len(seeds) == 900

    def test_seed_masking_to_64_bits(self):
        assert derive_seed(2**64 + 5, 1) == derive_seed(5, 1)


class TestNoiseStream:
    def test_counter_based_order_independence(self):
        s = NoiseStream(7, 0, 1)
        forward = [s.normal(i) for i in range(10)]
        backward = [s.normal(i) for i in reversed(range(10))]
        assert forward == backward[::-1]

    def test_prefix_separates_streams(self):
        a = NoiseStream(7, 0, 0)
        b = NoiseStream(7, 0, 1)
        assert [a.normal(i) for i in range(5)] != [b.normal(i) for i in range(5)]

    def test_independent_substreams_uncorrelated(self):
        a = NoiseStream(11, 0, 0)
        b = NoiseStream(11, 0, 1)
        za = np.array([a.normal(i) for i in range(10000)])
        zb = np.array([b.normal(i) for i in range(10000)])
        rho = np.corrcoef(za, zb)[0, 1]
        assert abs(rho) < 0.05


class TestNormalGrid:
    """The array path against the scalar reference, compared as bytes."""

    def test_uint64_mixing_matches_python_ints(self):
        xs = [0, 1, 2, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1] + [mix64(i) for i in range(100)]
        mixed = rng._mix64_u64(np.array(xs, dtype=np.uint64))
        assert mixed.tolist() == [mix64(x) for x in xs]

    @pytest.mark.parametrize(
        "seed, prefix",
        [(42, (0, 0, 0)), (42, (1, 3, 199)), (7, (0, 2, 5)), (0, ()), (2**64 - 1, (2, 1)), (2**70 + 9, (3,))],
    )
    def test_grid_matches_scalar_normal(self, seed, prefix):
        stream = NoiseStream(seed, *prefix)
        grid = stream.normal_grid(20, 64)
        reference = np.array([[stream.normal(k, c) for c in range(64)] for k in range(20)])
        assert grid.shape == (20, 64)
        assert grid.tobytes() == reference.tobytes()

    def test_degenerate_shapes(self):
        stream = NoiseStream(42, 0)
        assert stream.normal_grid(0, 5).shape == (0, 5)
        assert stream.normal_grid(3, 0).shape == (3, 0)
        assert stream.normal_grid(1, 1).tobytes() == np.array([[stream.normal(0, 0)]]).tobytes()


class TestZeroUniform:
    """u1 == 0 is replaced by 2**-53 in the Box-Muller transform both paths share."""

    EXPECTED = math.sqrt(-2.0 * math.log(2.0**-53)) * math.cos(2.0 * math.pi * 0.25)

    def test_shared_transform_substitutes(self):
        assert rng._box_muller([0.0, 2.0**-53], [0.25, 0.25]).tolist() == [self.EXPECTED, self.EXPECTED]

    def test_scalar_path(self, monkeypatch):
        uniforms = iter([0.0, 0.25])
        monkeypatch.setattr(SplitMix64, "next_float", lambda self: next(uniforms))
        assert SplitMix64(1).next_gauss() == self.EXPECTED

    def test_array_path(self, monkeypatch):
        monkeypatch.setattr(rng, "_unit_floats", lambda u64: np.zeros(u64.shape))
        grid = NoiseStream(5).normal_grid(2, 3)
        zero_zero = math.sqrt(-2.0 * math.log(2.0**-53)) * math.cos(0.0)
        assert grid.tobytes() == np.full((2, 3), zero_zero).tobytes()


class TestChildren:
    """A family of children against lone per-trial streams, compared as bytes."""

    SEEDS = (42, 7, 2**64 - 1)
    SHAPES = ((3, 3), (20, 64), (1, 5), (5, 1))

    @staticmethod
    def _lone(seed, prefix, n):
        return [NoiseStream(seed, *prefix, t) for t in range(n)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_family_grid_matches_lone_streams(self, seed, n, rows, cols):
        prefix = (1, 3)
        family = np.stack([c.normal_grid(rows, cols) for c in NoiseStream(seed, *prefix).children(n)])
        reference = np.stack([s.normal_grid(rows, cols) for s in self._lone(seed, prefix, n)])
        assert family.shape == (n, rows, cols)
        assert family.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prefix", [(), (0, 2)])
    def test_children_scalar_normal_and_seed(self, seed, prefix):
        children = NoiseStream(seed, *prefix).children(7)
        lone = self._lone(seed, prefix, 7)
        assert [c._seed for c in children] == [s._seed for s in lone]
        got = np.array([[c.normal(k, j) for k in range(3) for j in range(4)] for c in children])
        want = np.array([[s.normal(k, j) for k in range(3) for j in range(4)] for s in lone])
        assert got.tobytes() == want.tobytes()

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
    """One Box-Muller pass per family, run in chunks, against the scalar reference."""

    @pytest.mark.parametrize(
        "members, rows, cols",
        [(3, 3, 455), (2, 32, 64), (17, 1, 241), (1, 1, 3 * rng._CHUNK + 1)],
        ids=["below", "at", "above", "several"],
    )
    def test_family_normals_match_scalar_normal(self, members, rows, cols):
        size = members * rows * cols
        assert size in (rng._CHUNK - 1, rng._CHUNK, rng._CHUNK + 1, 3 * rng._CHUNK + 1)
        children = NoiseStream(42, 1, 2).children(members)
        got = np.stack([child.normal_grid(rows, cols) for child in children])
        want = np.array([[[child.normal(k, c) for c in range(cols)] for k in range(rows)] for child in children])
        assert got.tobytes() == want.tobytes()

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
        want = [
            math.sqrt(-2.0 * math.log(a if a != 0.0 else 2.0**-53)) * math.cos(2.0 * math.pi * b)
            for a, b in zip(u1.ravel().tolist(), u2.ravel().tolist())
        ]
        assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()
        substituted = math.sqrt(-2.0 * math.log(2.0**-53))
        for i in zeroed:
            assert got.reshape(-1)[i] == substituted * math.cos(2.0 * math.pi * u2.reshape(-1)[i])

    def test_grid_is_a_copy(self):
        child = NoiseStream(42, 0).children(2)[1]
        first = child.normal_grid(3, 3)
        first[:] = 0.0
        assert child.normal_grid(3, 3).tobytes() == NoiseStream(42, 0, 1).normal_grid(3, 3).tobytes()


class TestLibmPerElement:
    """``_box_muller`` takes ``log`` and ``cos`` from :mod:`math` for every element.

    numpy's vectorised ``log`` and ``cos`` may differ from libm by an ulp on
    some builds, and on others they agree with it everywhere, so comparing
    values cannot tell them apart. Shims on :mod:`math` that move every
    result by a known amount can.
    """

    def test_every_element_follows_math_log_and_cos(self, monkeypatch):
        size = 2 * rng._CHUNK + 3
        gen = np.random.default_rng(5)
        u1, u2 = gen.random(size), gen.random(size)
        u1[rng._CHUNK + 1] = 0.0
        log, cos = math.log, math.cos
        monkeypatch.setattr(math, "log", lambda x: log(x) - 1.0)
        monkeypatch.setattr(math, "cos", lambda x: cos(x) + 3.0)
        got = rng._box_muller(u1, u2)
        monkeypatch.undo()
        want = [
            math.sqrt(-2.0 * (math.log(a if a != 0.0 else 2.0**-53) - 1.0)) * (math.cos(2.0 * math.pi * b) + 3.0)
            for a, b in zip(u1.tolist(), u2.tolist())
        ]
        assert got.tobytes() == np.array(want).tobytes()


class TestNormalVector:
    """The vectorised lambda trajectory against scalar ``normal(t)``, compared as bytes."""

    @pytest.mark.parametrize("seed", [42, 7, 2**64 - 1])
    @pytest.mark.parametrize("prefix", [(2, 0), (2, 2), ()])
    def test_matches_scalar_normal(self, seed, prefix):
        stream = NoiseStream(seed, *prefix)
        got = stream.normal_vector(300)
        want = np.array([stream.normal(t) for t in range(300)])
        assert got.tobytes() == want.tobytes()

    def test_empty(self):
        assert NoiseStream(42).normal_vector(0).shape == (0,)
