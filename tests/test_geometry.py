import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import measure_prob

from cylsim.geometry import (
    XY_PLANE,
    Z_BASIS,
    CylinderExtremum,
    CylinderOperator,
    canonical_angle,
    to_bloch,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)


def in_cylinder(op: CylinderOperator, r: float, tol: float) -> bool:
    """Membership of op in the cylinder of radius r, up to tolerance tol."""
    if r < 0.0 or tol < 0.0:
        raise ValueError("r and tol must be nonnegative")
    return math.hypot(op.x, op.y) <= r + tol and abs(op.z) <= 1.0 + tol


def test_to_bloch_basics():
    assert to_bloch(CylinderExtremum(1, 0, 1)) == CylinderOperator(1, 0, 1)
    e = to_bloch(CylinderExtremum(0, 0.7, -1))
    assert (e.x, e.y, e.z) == (0, 0, -1)
    e = to_bloch(CylinderExtremum(0.5, math.pi / 2, 1))
    assert e.x == pytest.approx(0, abs=1e-15)
    assert e.y == pytest.approx(0.5)


@given(st.floats(0, 2, exclude_max=True), angles, st.sampled_from([1, -1]))
def test_extremum_radius_exact(r, theta, pole):
    e = CylinderExtremum(r, theta, pole)
    op = to_bloch(e)
    assert math.hypot(op.x, op.y) == pytest.approx(r, abs=1e-12)
    assert op.z == pole
    assert in_cylinder(op, r, 1e-12)


def test_extremum_validation():
    with pytest.raises(ValueError):
        CylinderExtremum(-0.1, 0, 1)
    with pytest.raises(ValueError):
        CylinderExtremum(0.5, 0, 0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            CylinderExtremum(0.5, bad, 1)
    # True and False are numbers to Python, and 1.0 == 1
    for args in ((True, 0, 1), ("0.5", 0, 1), (0.5, False, 1), (0.5, "0", 1),
                 (0.5, 0, True), (0.5, 0, 1.0), (0.5, 0, -1.0)):
        with pytest.raises(ValueError):
            CylinderExtremum(*args)
    assert CylinderExtremum(np.float64(0.5), np.float64(1.0), np.int64(-1)).pole == -1


@given(angles)
def test_canonical_angle_range(t):
    c = canonical_angle(t)
    assert 0.0 <= c < 2 * math.pi
    assert math.isclose(math.cos(c), math.cos(t), abs_tol=1e-9)
    assert math.isclose(math.sin(c), math.sin(t), abs_tol=1e-9)


def test_in_cylinder():
    assert in_cylinder(CylinderOperator(1, 0, 1), 1, 0)
    assert not in_cylinder(CylinderOperator(1, 0, 1.5), 1, 0)
    assert not in_cylinder(CylinderOperator(0.8, 0.6, 0), 0.9, 0)


def test_measure_prob_examples():
    assert measure_prob(CylinderOperator(0, 0, 1), Z_BASIS, 0.0, 0) == 1
    assert measure_prob(CylinderOperator(0, 0, 0), XY_PLANE, 0.3, 0) == 0.5
    # signed quasi-probability for a non-dual operator
    assert measure_prob(
        CylinderOperator(1.2, 0, 1), XY_PLANE, math.pi, 0
    ) == pytest.approx(-0.1)


@given(
    st.floats(0, 1), angles, st.sampled_from([1, -1]),
    angles, st.sampled_from([Z_BASIS, XY_PLANE]),
)
def test_dual_property_unit_cylinder(r, theta, pole, alpha, kind):
    """Operators in the unit cylinder give genuine probabilities."""
    op = to_bloch(CylinderExtremum(r, theta, pole))
    p0 = measure_prob(op, kind, alpha, 0)
    p1 = measure_prob(op, kind, alpha, 1)
    assert -1e-12 <= p0 <= 1 + 1e-12
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
