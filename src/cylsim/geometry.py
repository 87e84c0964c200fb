"""Bloch-coordinate operator algebra for single qubits with cylinder state spaces.

A "cylinder" of radius r is the set of unit-trace Hermitian 2x2 operators
whose transverse Bloch norm sqrt(x^2 + y^2) is at most r, with z anywhere
in [-1, 1].  The unit cylinder is exactly the set of unit-trace operators
that return nonnegative Born-rule values for Z-basis measurements and
measurements of cos(a)X + sin(a)Y.  Operators with |z| = 1 and transverse
radius above zero are not quantum states; they are still valid inputs here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: default tolerance for membership / positivity decisions
MEMBERSHIP_TOL = 1e-9

Z_BASIS = "ZBasis"
XY_PLANE = "XYPlane"


def is_real(x) -> bool:
    """A real number that is not a bool (True and False are Integral in Python)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def canonical_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    # fmod can return TWO_PI after the correction for tiny negative inputs
    if t >= TWO_PI:
        t -= TWO_PI
    return t


@dataclass(frozen=True)
class CylinderOperator:
    """Unit-trace qubit operator (I + x X + y Y + z Z)/2 in Bloch coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite Bloch coefficient {name}={v!r}")

    @property
    def radius(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class CylinderExtremum:
    """Point on the top or bottom rim of a cylinder: radius r, angle theta, z = pole."""

    r: float
    theta: float
    pole: int

    def __post_init__(self):
        if not (is_real(self.r) and self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"invalid radius {self.r!r}")
        pole = self.pole
        if not (is_real(pole) and isinstance(pole, numbers.Integral) and pole in (1, -1)):
            raise ValueError(f"pole must be the integer +1 or -1, got {pole!r}")
        if not (is_real(self.theta) and math.isfinite(self.theta)):
            raise ValueError(f"invalid angle theta={self.theta!r}")
        object.__setattr__(self, "theta", canonical_angle(self.theta))


@dataclass(frozen=True)
class Measurement:
    """Either a Z-basis measurement or an XY-plane measurement of cos(a)X + sin(a)Y."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in (Z_BASIS, XY_PLANE):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        object.__setattr__(self, "alpha", canonical_angle(self.alpha))


def to_bloch(e: CylinderExtremum) -> CylinderOperator:
    """Bloch coordinates of a cylinder extremum."""
    return CylinderOperator(e.r * math.cos(e.theta), e.r * math.sin(e.theta), float(e.pole))


def dephase(op: CylinderOperator) -> CylinderOperator:
    """Remove the off-diagonal (transverse) part, keeping z."""
    return CylinderOperator(0.0, 0.0, op.z)


def phase_map(op: CylinderOperator, r: float) -> CylinderOperator:
    """Phasing map r*I + (1-r)*dephase: scales the transverse part by r.

    Physical dephasing noise for r in [0, 1]; an invertible radius rescaling
    for r > 0, with phase_map(., r) o phase_map(., s) = phase_map(., r*s).
    """
    if r < 0.0:
        raise ValueError(f"phase_map requires r >= 0, got {r!r}")
    return CylinderOperator(r * op.x, r * op.y, op.z)


def in_cylinder(op: CylinderOperator, r: float, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership of op in the cylinder of radius r, up to tolerance tol."""
    if r < 0.0 or tol < 0.0:
        raise ValueError("r and tol must be nonnegative")
    return op.radius <= r + tol and abs(op.z) <= 1.0 + tol


def measure_prob(op: CylinderOperator, m: Measurement, outcome: int) -> float:
    """Born-rule value for the given outcome (0 or 1).

    For operators outside the unit cylinder the value can be negative; it is
    returned as a signed quasi-probability, not an error.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    sign = 1.0 if outcome == 0 else -1.0
    if m.kind == Z_BASIS:
        return 0.5 * (1.0 + sign * op.z)
    return 0.5 * (1.0 + sign * (op.x * math.cos(m.alpha) + op.y * math.sin(m.alpha)))
