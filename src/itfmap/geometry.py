"""Crossed-baseline geometry: TDOA pairs <-> (azimuth, elevation).

Axes follow the array layout: the BD baseline lies along x, BC along y, and
both share antenna B at the origin.  Azimuth is measured from the BD axis,
counterclockwise positive, in [0, 360); elevation in [0, 90] with 90 at
zenith.  A TDOA pair is physical only if sqrt(tau1^2 + tau2^2) <= d/c (the
baseline transit time); anything beyond the gate is flagged invalid rather
than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, acos, degrees, hypot, radians, sin

SPEED_OF_LIGHT = 299792458.0
DEFAULT_BASELINE_M = 15.0

# gate values in (1, 1 + GATE_SLACK] are clamped to 1 (elevation 0) to absorb
# floating-point noise; beyond that the estimate is invalid
GATE_SLACK = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """Baseline length d (meters) and propagation speed c (m/s)."""

    d: float = DEFAULT_BASELINE_M
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("baseline length must be > 0")
        if self.c <= 0:
            raise ValueError("propagation speed must be > 0")

    @property
    def transit_time(self) -> float:
        """Maximum physical |TDOA| on one baseline, d/c seconds."""
        return self.d / self.c


@dataclass(frozen=True)
class DirectionEstimate:
    """Azimuth/elevation of one TDOA pair, with the transit-gate verdict.

    Invalid estimates carry no angle claims: az_deg/el_deg are None when
    `valid` is False.  `gate_value` is (c/d) * sqrt(tau1^2 + tau2^2).
    """

    az_deg: float | None
    el_deg: float | None
    valid: bool
    gate_value: float


def direction_from_tdoa(tau1: float, tau2: float, geom: ArrayGeometry) -> DirectionEstimate:
    """Invert the two baseline delays to a direction.

    tau1 is the BC-baseline delay, tau2 the BD-baseline delay (seconds).
    gate = (c/d) sqrt(tau1^2 + tau2^2); gate > 1 (beyond float slack) or a
    NaN delay means the pair is unphysical and the estimate is returned
    invalid.  Otherwise Az = atan2(tau1, tau2) in [0, 360) and
    El = arccos(gate); the zenith pair (0, 0) reads (0, 90).
    """
    gate = (geom.c / geom.d) * hypot(tau1, tau2)
    if not gate <= 1.0 + GATE_SLACK:
        return DirectionEstimate(None, None, False, gate)
    if tau1 == 0.0 and tau2 == 0.0:
        return DirectionEstimate(0.0, 90.0, True, gate)
    return DirectionEstimate(degrees(atan2(tau1, tau2)) % 360.0, degrees(acos(min(gate, 1.0))), True, gate)


def tdoa_from_direction(az_deg: float, el_deg: float, geom: ArrayGeometry) -> tuple[float, float]:
    """Delays (tau1, tau2) whose round trip reproduces (az, el).

    The positive square root of the elevation relation is sign-restored by
    quadrant: tau1 = (d/c) cos(el) sin(az), tau2 = (d/c) cos(el) cos(az).
    Elevation 90 gives (0, 0); az +-90 gives tau2 = 0 exactly.
    """
    if not 0.0 <= el_deg <= 90.0:
        raise ValueError(f"elevation must lie in [0, 90], got {el_deg}")
    scale = geom.transit_time * cos(radians(el_deg))
    az = radians(az_deg)
    return scale * sin(az), scale * cos(az)
