"""Arrival extraction and timing-based displacement decoding."""

import math

import numpy as np
import pytest

from tempocode.encoding import encode_traversal
from tempocode.latency import arrival_time, decode_displacement
from tempocode.rng import NoiseStream
from tempocode.types import LatencyParams, SpikePacket, Traversal
from tempocode.world import SyntheticObject, WorldParams, generate_traversal


class TestArrivalTime:
    def test_min_offset_zero_gives_arrival(self):
        p = SpikePacket({1: 0.0, 3: 0.00333}, arrival=0.020)
        assert arrival_time(p) == 0.020

    def test_empty_packet_absent(self):
        assert arrival_time(SpikePacket({})) is None
        assert arrival_time(None) is None

    def test_single_spike(self):
        assert arrival_time(SpikePacket({5: 0.0}, arrival=1.0)) == 1.0


class TestDecodeDisplacement:
    def test_axis_aligned(self):
        d = decode_displacement(2.0, 0.0, LatencyParams(1.0))
        assert (d.dx, d.dy, d.dz) == (2.0, 0.0, 0.0)

    def test_zero_interval(self):
        d = decode_displacement(0.0, 1.234)
        assert (d.dx, d.dy, d.dz) == (0.0, 0.0, 0.0)

    def test_quarter_turn(self):
        d = decode_displacement(1.0, math.pi / 2, LatencyParams(0.5))
        assert abs(d.dx - 0.0) < 1e-12
        assert abs(d.dy - 0.5) < 1e-12
        assert d.dz == 0.0

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            decode_displacement(-0.001, 0.0)

    def test_linearity_in_time(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dt = float(rng.uniform(0, 5))
            k = float(rng.uniform(0, 4))
            theta = float(rng.uniform(-math.pi, math.pi))
            base = decode_displacement(dt, theta).to_array()
            scaled = decode_displacement(k * dt, theta).to_array()
            np.testing.assert_allclose(scaled, k * base, rtol=1e-12, atol=1e-15)

    def test_norm_law(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dt = float(rng.uniform(0, 5))
            v = float(rng.uniform(0.1, 10))
            theta = float(rng.uniform(-math.pi, math.pi))
            d = decode_displacement(dt, theta, LatencyParams(v))
            assert d.norm() == pytest.approx(v * dt, rel=1e-12, abs=1e-15)


class TestWorldRoundTrip:
    """A simulated sweep's decoded displacement vs its ground truth."""

    def _arrival_gaps(self, interval):
        obj = SyntheticObject("probe", (np.array([0.9, 0.2]), np.array([0.2, 0.9]), np.array([0.9, 0.2])))
        params = WorldParams(noise_sigma=0.0, inter_contact_interval=interval)
        trav = generate_traversal(obj, params, NoiseStream(1, 0, 0, 0))
        packets = encode_traversal(trav)
        arrivals = [arrival_time(p) for p in packets]
        return [b - a for a, b in zip(arrivals, arrivals[1:])]

    def test_exact_velocity_recovers_truth(self):
        v_true, interval, theta = 1.7, 0.05, 0.3
        truth = np.array([v_true * interval * math.cos(theta), v_true * interval * math.sin(theta), 0.0])
        for gap in self._arrival_gaps(interval):
            decoded = decode_displacement(gap, theta, LatencyParams(v_true)).to_array()
            np.testing.assert_allclose(decoded, truth, atol=1e-9)

    @pytest.mark.parametrize("mismatch", [0.5, 2.0])
    def test_velocity_mismatch_scales_magnitude_linearly(self, mismatch):
        v_true, interval, theta = 1.25, 0.04, -1.1
        true_distance = v_true * interval
        for gap in self._arrival_gaps(interval):
            decoded = decode_displacement(gap, theta, LatencyParams(mismatch * v_true))
            assert decoded.norm() == pytest.approx(mismatch * true_distance, rel=1e-9)
