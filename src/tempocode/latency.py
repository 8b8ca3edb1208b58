"""Displacement inference from inter-packet timing.

The time gap between two successive spike packets, multiplied by the
assumed motor velocity, is an implicit measure of how far the sensor moved:
displacement = v * dt * (cos theta, sin theta, 0). No odometry or explicit
coordinates are involved; the timing is the spatial signal. The third
component is always 0 (planar motor directions only).
"""

from __future__ import annotations

import math

from .types import Displacement, LatencyParams


def decode_displacement(delta_t: float, motor_direction: float, params: LatencyParams = LatencyParams()) -> Displacement:
    """Displacement implied by an inter-packet interval and motor direction.

    Raises ValueError for a negative interval (a caller error: packets are
    temporally ordered), for a non-finite interval or direction, and for a
    velocity times interval past the largest double, naming the component
    that is not finite. A finite distance needs no check of its components:
    |cos| and |sin| are at most 1, so each is finite too.
    """
    delta_t, motor_direction = float(delta_t), float(motor_direction)
    if not math.isfinite(delta_t) or delta_t < 0.0:
        raise ValueError(f"inter-packet interval must be finite and >= 0, got {delta_t}")
    if not math.isfinite(motor_direction):
        raise ValueError(f"motor direction must be finite, got {motor_direction}")
    distance = params.assumed_velocity * delta_t
    dx, dy = distance * math.cos(motor_direction), distance * math.sin(motor_direction)
    if math.isfinite(distance):
        return Displacement._from_finite(dx, dy)
    return Displacement(dx, dy)
