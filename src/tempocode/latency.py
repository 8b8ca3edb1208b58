"""Displacement inference from inter-packet timing.

The time gap between two successive spike packets, multiplied by the
assumed motor velocity, is an implicit measure of how far the sensor moved:
displacement = v * dt * (cos theta, sin theta, 0). No odometry or explicit
coordinates are involved; the timing is the spatial signal. The third
component is always 0 (planar motor directions only).
"""

from __future__ import annotations

import math

from .types import Displacement, LatencyParams, SpikePacket


def arrival_time(packet: SpikePacket | None) -> float | None:
    """Global time of the packet's earliest spike; None for an empty packet."""
    if packet is None or not packet:
        return None
    return packet.arrival + min(packet.spikes.values())


def decode_displacement(delta_t: float, motor_direction: float, params: LatencyParams = LatencyParams()) -> Displacement:
    """Displacement implied by an inter-packet interval and motor direction.

    Raises ValueError for a negative interval (a caller error: packets are
    temporally ordered), and for a non-finite interval or direction.
    """
    delta_t, motor_direction = float(delta_t), float(motor_direction)
    if not math.isfinite(delta_t) or delta_t < 0.0:
        raise ValueError(f"inter-packet interval must be finite and >= 0, got {delta_t}")
    if not math.isfinite(motor_direction):
        raise ValueError(f"motor direction must be finite, got {motor_direction}")
    distance = params.assumed_velocity * delta_t
    return Displacement(
        dx=distance * math.cos(motor_direction),
        dy=distance * math.sin(motor_direction),
        dz=0.0,
    )
