import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cylsim.geometry import (
    XY_PLANE,
    Z_BASIS,
    CylinderExtremum,
    CylinderOperator,
    Measurement,
    canonical_angle,
    dephase,
    in_cylinder,
    measure_prob,
    phase_map,
    to_bloch,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)


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
    assert op.radius == pytest.approx(r, abs=1e-12)
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


def test_dephase():
    assert dephase(CylinderOperator(1, 0, 1)) == CylinderOperator(0, 0, 1)
    assert dephase(CylinderOperator(0, 0, -0.3)) == CylinderOperator(0, 0, -0.3)
    assert dephase(CylinderOperator(0.2, -0.4, 0.5)) == CylinderOperator(0, 0, 0.5)


def test_phase_map_examples():
    op = CylinderOperator(1, 0, 1)
    assert phase_map(op, 0) == dephase(op)
    assert phase_map(op, 0.5) == CylinderOperator(0.5, 0, 1)
    assert phase_map(CylinderOperator(0.5, 0, 1), 2) == CylinderOperator(1, 0, 1)
    with pytest.raises(ValueError):
        phase_map(op, -0.1)


@given(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
    st.floats(0, 3), st.floats(0, 3),
)
def test_phase_map_composition(x, y, z, r, s):
    op = CylinderOperator(x, y, z)
    lhs = phase_map(phase_map(op, r), s)
    rhs = phase_map(op, r * s)
    assert math.isclose(lhs.x, rhs.x, abs_tol=1e-12)
    assert math.isclose(lhs.y, rhs.y, abs_tol=1e-12)
    assert lhs.z == rhs.z


def test_in_cylinder():
    assert in_cylinder(CylinderOperator(1, 0, 1), 1, 0)
    assert not in_cylinder(CylinderOperator(1, 0, 1.5), 1, 0)
    assert not in_cylinder(CylinderOperator(0.8, 0.6, 0), 0.9, 0)


def test_measure_prob_examples():
    assert measure_prob(CylinderOperator(0, 0, 1), Measurement(Z_BASIS), 0) == 1
    assert measure_prob(CylinderOperator(0, 0, 0), Measurement(XY_PLANE, 0.3), 0) == 0.5
    # signed quasi-probability for a non-dual operator
    assert measure_prob(
        CylinderOperator(1.2, 0, 1), Measurement(XY_PLANE, math.pi), 0
    ) == pytest.approx(-0.1)


@given(
    st.floats(0, 1), angles, st.sampled_from([1, -1]),
    angles, st.sampled_from([Z_BASIS, XY_PLANE]),
)
def test_dual_property_unit_cylinder(r, theta, pole, alpha, kind):
    """Operators in the unit cylinder give genuine probabilities."""
    op = to_bloch(CylinderExtremum(r, theta, pole))
    m = Measurement(kind, alpha)
    p0 = measure_prob(op, m, 0)
    p1 = measure_prob(op, m, 1)
    assert -1e-12 <= p0 <= 1 + 1e-12
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
