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

Z_BASIS = "ZBasis"
XY_PLANE = "XYPlane"


def is_real(x) -> bool:
    """A real number that is not a bool (True and False are Integral in Python)."""
    if isinstance(x, float):  # the common case, without the abstract-class check
        return True
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


def to_bloch(e: CylinderExtremum) -> CylinderOperator:
    """Bloch coordinates of a cylinder extremum."""
    return CylinderOperator(e.r * math.cos(e.theta), e.r * math.sin(e.theta), float(e.pole))

