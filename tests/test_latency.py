"""Packet arrivals and timing-based displacement decoding."""

import math
import re
import struct
from dataclasses import astuple

import numpy as np
import pytest

from tempocode.encoding import encode, encode_traversal
from tempocode.latency import decode_displacement
from tempocode.rng import NoiseStream
from tempocode.types import Displacement, LatencyParams, SpikePacket
from tempocode.world import SyntheticObject, WorldParams, generate_traversal


class TestArrivalTime:
    """A non-empty packet's arrival, which decoding reads, is the global time of its first spike, whether the public
    constructor built it or :func:`encode` did."""

    @pytest.mark.parametrize(
        "packet, expected",
        [(SpikePacket({1: 0.0, 3: 0.00333}, arrival=0.020), 0.020), (SpikePacket({5: 0.0}, arrival=1.0), 1.0),
         (encode([0.9, 0.2, 0.7, 0.5], arrival=0.020), 0.020), (encode([0.0, 0.8, 0.0], arrival=1.0), 1.0)],
        ids=["min-offset-zero", "single-spike", "encoded", "encoded-single-spike"],
    )
    def test_arrival_is_the_first_spike(self, packet, expected):
        _, times = packet.id_time_arrays
        assert len(times) == len(packet) > 0
        assert packet.arrival == times.min() == expected


class TestDecodeDisplacement:
    @pytest.mark.parametrize(
        "dt, theta, velocity, expected",
        [(2.0, 0.0, 1.0, (2.0, 0.0, 0.0)), (0.0, 1.234, 1.0, (0.0, 0.0, 0.0)), (1.0, math.pi / 2, 0.5, (0.0, 0.5, 0.0))],
        ids=["axis-aligned", "zero-interval", "quarter-turn"],
    )
    def test_examples(self, dt, theta, velocity, expected):
        d = decode_displacement(dt, theta, LatencyParams(velocity))
        np.testing.assert_allclose((d.dx, d.dy, d.dz), expected, rtol=0, atol=1e-12)
        assert d.dz == 0.0

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            decode_displacement(-0.001, 0.0)

    @pytest.mark.parametrize("direction", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_direction(self, direction):
        with pytest.raises(ValueError, match="motor direction must be finite"):
            decode_displacement(0.1, direction)

    def test_linearity_in_time(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dt = float(rng.uniform(0, 5))
            k = float(rng.uniform(0, 4))
            theta = float(rng.uniform(-math.pi, math.pi))
            base = astuple(decode_displacement(dt, theta))
            scaled = astuple(decode_displacement(k * dt, theta))
            np.testing.assert_allclose(scaled, k * np.array(base), rtol=1e-12, atol=1e-15)

    def test_norm_law(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dt = float(rng.uniform(0, 5))
            v = float(rng.uniform(0.1, 10))
            theta = float(rng.uniform(-math.pi, math.pi))
            d = decode_displacement(dt, theta, LatencyParams(v))
            assert math.hypot(d.dx, d.dy, d.dz) == pytest.approx(v * dt, rel=1e-12, abs=1e-15)


class TestTrustedDisplacement:
    """A finite distance builds its displacement unchecked, and the result is the checked constructor's."""

    def test_it_equals_the_checked_constructor_as_bytes(self):
        rng = np.random.default_rng(27)
        directions = [0.0, -0.0, math.pi, -math.pi / 2, *rng.uniform(-10.0, 10.0, 300)]
        for k, theta in enumerate(directions):
            dt = float(rng.choice([0.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-320.0, 300.0)]))
            params = LatencyParams(float(10.0 ** rng.uniform(-5.0, 5.0)))
            # At most 1e305, so every distance is finite.
            distance = params.assumed_velocity * dt
            got = decode_displacement(dt, theta, params)
            expected = Displacement(distance * math.cos(theta), distance * math.sin(theta), 0.0)
            assert struct.pack("3d", *astuple(got)) == struct.pack("3d", *astuple(expected)), k
            assert (got, repr(got), hash(got)) == (expected, repr(expected), hash(expected))
            assert all(type(v) is float for v in astuple(got))

    @pytest.mark.parametrize("theta, component", [(0.5, "dx must be finite, got inf"),
                                                  (2.0, "dx must be finite, got -inf")])
    def test_an_overflowing_distance_still_raises_naming_the_component(self, theta, component):
        with pytest.raises(ValueError, match=re.escape(f"displacement component {component}")):
            decode_displacement(1e308, theta, LatencyParams(10.0))


class TestWorldRoundTrip:
    """A simulated sweep's decoded displacement vs its ground truth."""

    def _arrival_gaps(self, interval):
        obj = SyntheticObject("probe", (np.array([0.9, 0.2]), np.array([0.2, 0.9]), np.array([0.9, 0.2])))
        params = WorldParams(noise_sigma=0.0, inter_contact_interval=interval)
        trav = generate_traversal(obj, params, NoiseStream(1, 0, 0, 0))
        packets = encode_traversal(trav)
        arrivals = [p.arrival for p in packets]
        return [b - a for a, b in zip(arrivals, arrivals[1:])]

    @pytest.mark.parametrize("mismatch", [1.0, 0.5, 2.0])
    def test_decoded_displacement_scales_with_the_assumed_velocity(self, mismatch):
        # At the true velocity the decoded vector is the ground truth; a mismatch scales it linearly.
        v_true, interval, theta = 1.25, 0.04, -1.1
        truth = np.array([v_true * interval * math.cos(theta), v_true * interval * math.sin(theta), 0.0])
        for gap in self._arrival_gaps(interval):
            decoded = astuple(decode_displacement(gap, theta, LatencyParams(mismatch * v_true)))
            np.testing.assert_allclose(decoded, mismatch * truth, rtol=1e-9, atol=1e-9 * mismatch)
