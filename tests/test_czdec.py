import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pauli_coefficients, reference_lp_feasibility

from cylsim import czdec
from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.czdec import (
    LAMBDA,
    DecompositionError,
    apply_branch,
    build_decomposition,
    cz_pauli_output,
    lp_feasibility,
    ppt_determinants,
    reconstructed_output,
    separability_condition,
    symmetric_growth,
)
from cylsim.geometry import TWO_PI, XY_PLANE, CylinderExtremum
from cylsim.oracle import dense_output


def test_symmetric_growth_value():
    assert symmetric_growth() == pytest.approx(2.05817, abs=1e-5)
    assert symmetric_growth() == math.sqrt(1.0 / (math.sqrt(5.0) - 2.0))
    assert LAMBDA**-4 == pytest.approx(0.0557, abs=1e-4)


def test_separability_examples():
    assert separability_condition(0, 0.5, 1, 0.5)
    assert separability_condition(1, 1, LAMBDA, LAMBDA)
    # saturation at the critical growth
    f = 1.0 / LAMBDA
    assert abs(1.0 - ((f + f) ** 2 + (f * f) ** 2)) < 1e-12
    assert not separability_condition(1, 1, 2, 2)


def test_separability_degenerate_output_radius():
    assert not separability_condition(0.5, 0.5, 0, 1)
    assert separability_condition(0, 0.3, 0, 1)


@given(
    st.floats(0, 1), st.floats(0, 1),
    st.floats(0.05, 3), st.floats(0.05, 3),
    st.floats(0.5, 1), st.floats(0.5, 1),
)
def test_separability_monotone(rA, rB, RA, RB, shrinkA, shrinkB):
    if separability_condition(rA, rB, RA, RB):
        assert separability_condition(rA * shrinkA, rB * shrinkB, RA, RB)


def test_cz_pauli_output_structure():
    m = cz_pauli_output(0, 0)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[0, 3] = expect[3, 0] = expect[3, 3] = 1
    assert np.array_equal(m, expect)

    m = cz_pauli_output(1, 1)
    assert m[0, 1] == m[1, 0] == m[1, 3] == m[3, 1] == m[2, 2] == 1

    assert cz_pauli_output(0.3, 0.5)[2, 2] == pytest.approx(0.15)


@pytest.mark.parametrize("rA,rB", [(0.2, 0.7), (0.5, 0.5), (1.0, 0.3)])
def test_cz_pauli_output_vs_dense(rA, rB):
    c = ClusterCircuit(
        2,
        ((0, 1),),
        (CylinderExtremum(rA, 0, 1), CylinderExtremum(rB, 0, 1)),
        (MeasurementRule(XY_PLANE),) * 2,
        (0, 1),
    )
    coeffs = pauli_coefficients(dense_output(c), 2)
    assert np.max(np.abs(coeffs - cz_pauli_output(rA, rB))) < 1e-12


def test_ppt_determinants():
    f = 1.0 / LAMBDA
    inner, outer = ppt_determinants(f, f)
    assert abs(outer) < 1e-12
    assert ppt_determinants(0, 0.8) == (pytest.approx(0.36), pytest.approx(0.36))
    _, outer = ppt_determinants(0.6, 0.6)
    assert outer < 0


def test_build_decomposition_trivial_and_infeasible():
    # diagonal inputs: growth inf, t = pi, w = v = 1/4 and u = 1/2
    rep = build_decomposition(0.0)
    assert rep.growth == math.inf
    assert [w for w, _, _ in rep.branches] == [0.125, 0.125, 0.25, 0.25, 0.25]
    assert rep.branches[0][1:] == (math.pi, math.pi)
    assert rep.residual == czdec.mixture_residual(0.0, rep.branches) <= 1e-14
    with pytest.raises(DecompositionError) as exc:
        build_decomposition(0.6)
    assert exc.value.residual == math.inf


def test_build_decomposition_accepts_by_mixture_residual(monkeypatch):
    # the rule reads the residual of the branches it built, whatever their form
    monkeypatch.setattr(czdec, "mixture_residual", lambda f, branches: 2e-6)
    with pytest.raises(DecompositionError, match="residual 2.000e-06 > 1.0e-06") as exc:
        build_decomposition(0.3)
    assert exc.value.residual == 2e-6
    monkeypatch.setattr(czdec, "mixture_residual", lambda f, branches: 1e-6)
    assert build_decomposition(0.3).residual == 1e-6


def test_build_decomposition_near_critical():
    rep = build_decomposition(1.0 / LAMBDA - 1e-3)
    f = 1.0 / rep.growth
    eA = CylinderExtremum(f, 0.0, 1)
    rec = reconstructed_output(eA, eA, rep)
    assert np.max(np.abs(rec - cz_pauli_output(f, f))) < 1e-14
    assert rep.residual == czdec.mixture_residual(f, rep.branches)
    assert len(rep.branches) == 5
    assert sum(p for p, _, _ in rep.branches) == pytest.approx(1.0, abs=1e-15)


def _margin_ratio(margin: float) -> float:
    return 1.0 / (LAMBDA * (1.0 + margin))


def test_closed_form_is_exact_on_the_separable_range():
    for f in [*np.linspace(0.0, 1.0 / LAMBDA, 2001), *map(_margin_ratio, (1e-3, 2e-3, 0.0))]:
        rep = build_decomposition(f)
        assert all(w >= 0.0 for w, _, _ in rep.branches)
        assert czdec.mixture_residual(f, rep.branches) <= 1e-14
        # two mirror pairs and the identity branch
        (w1, a1, b1), (w2, a2, b2), (u1, c1, d1), (u2, c2, d2), (_, e1, e2) = rep.branches
        assert (w1, a1, b1) == (w2, -a2, -b2) and a1 == b1
        assert u1 == u2 and (c1, d1, c2, d2, e1, e2) == (0.0, math.pi, math.pi, 0.0, 0.0, 0.0)


def test_build_decomposition_refuses_exactly_outside_separability():
    margins = {-1e-2: False, -1e-3: False, -1e-6: False, 0.0: True, 1e-9: True}
    fs = [*np.linspace(0.47, 0.5, 301), *map(_margin_ratio, margins)]
    held = [separability_condition(f, f, 1.0, 1.0) for f in fs]
    assert held[-len(margins):] == list(margins.values()) and False in held[:-len(margins)]
    for f, holds in zip(fs, held):
        if holds:
            assert build_decomposition(f).residual <= 1e-14
        else:
            with pytest.raises(DecompositionError):
                build_decomposition(f)


def test_lp_judge_agrees_at_the_margins():
    # the LP over a 64-angle grid, an independent judge of the same boundary
    f = _margin_ratio(1e-3)
    ok, residual, _ = lp_feasibility(f, f, grid_size=64)
    assert ok and residual <= 1e-9
    f = _margin_ratio(-1e-2)
    ok, residual, _ = lp_feasibility(f, f, grid_size=64)
    assert not ok and residual > 1e-3


def test_critical_weights_are_golden():
    # at f = 1/LAMBDA the identity branch drops out, and the mirror pairs weigh
    # the golden-ratio conjugates; checks LAMBDA apart from the PPT determinant
    (w1, _, _), (w2, _, _), (u1, _, _), (u2, _, _), (v, _, _) = build_decomposition(
        1.0 / LAMBDA).branches
    assert abs(w1 + w2 - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-14
    assert abs(u1 + u2 - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-14
    assert abs(v) <= 1e-14


def test_lp_feasibility_asymmetric():
    ok, residual, _ = lp_feasibility(0.3, 0.1, grid_size=48)
    assert ok and residual < 1e-6
    ok, residual, _ = lp_feasibility(0.8, 0.4, grid_size=48)
    assert not ok and residual > 1e-3


# (fA, fB) on both sides of the PPT boundary, fA != fB included
LP_CASES = ((0.2, 0.2), (0.3, 0.1), (0.0, 0.8), (0.35, 0.6), (0.45, 0.45),
            (1 / LAMBDA - 0.02, 1 / LAMBDA - 0.02), (0.5, 0.5), (0.8, 0.4), (0.7, 0.3))


@pytest.mark.parametrize("grid_size", [8, 9, 16, 32])
def test_lp_feasibility_matches_reference_lp(grid_size):
    assert {ppt_determinants(fA, fB)[1] > 0 for fA, fB in LP_CASES} == {True, False}
    step = TWO_PI / grid_size
    for fA, fB in LP_CASES:
        ok, residual, branches = lp_feasibility(fA, fB, grid_size=grid_size)
        ref_ok, ref_residual, _ = reference_lp_feasibility(fA, fB, grid_size=grid_size)
        assert ok == ref_ok
        assert residual == pytest.approx(ref_residual, abs=1e-10)
        # mirror-closed, with equal weights at a pair and its mirror
        weights = {(round(a / step), round(b / step)): w for w, a, b in branches}
        assert len(weights) == len(branches)
        for (j, k), w in weights.items():
            assert weights.get((-j % grid_size, -k % grid_size)) == w
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        if fA == fB:
            assert czdec.mixture_residual(fA, branches) == pytest.approx(residual, abs=1e-12)


@pytest.mark.parametrize("grid_size,fixed_points", [(8, 4), (9, 1), (16, 4), (96, 4)])
def test_product_columns_one_per_mirror_pair(grid_size, fixed_points):
    rows, j, k = czdec._product_columns(grid_size)
    assert rows.shape == (4, (grid_size**2 + fixed_points) // 2)
    mirrors = set(zip(-j % grid_size, -k % grid_size))
    assert len(mirrors | set(zip(j, k))) == grid_size**2


@pytest.fixture(scope="module")
def module_rep():
    return build_decomposition(1.0 / (LAMBDA * 1.001))


def test_apply_branch_diagonal_fixed_point(module_rep):
    eA = CylinderExtremum(0, 0, 1)
    eB = CylinderExtremum(0, 1.0, 1)
    for _, da, db in module_rep.branches:
        oA, oB = apply_branch(eA, eB, module_rep.growth, da, db)
        assert oA.r == 0 and oB.r == 0
        assert oA.pole == 1 and oB.pole == 1


@pytest.mark.parametrize("poleA", [1, -1])
@pytest.mark.parametrize("poleB", [1, -1])
def test_reconstruction_all_pole_combos(module_rep, poleA, poleB):
    rng = np.random.default_rng(11)
    f = 1.0 / module_rep.growth
    for _ in range(8):
        tA, tB = rng.uniform(0, 2 * math.pi, 2)
        eA = CylinderExtremum(f, tA, poleA)
        eB = CylinderExtremum(f, tB, poleB)
        c = ClusterCircuit(
            2, ((0, 1),), (eA, eB), (MeasurementRule(XY_PLANE),) * 2, (0, 1)
        )
        dense = pauli_coefficients(dense_output(c), 2)
        rec = reconstructed_output(eA, eB, module_rep)
        assert np.max(np.abs(rec - dense)) < 1e-6


def test_output_radii_grow_exactly(module_rep):
    eA = CylinderExtremum(0.2, 0.5, -1)
    eB = CylinderExtremum(0.1, 2.5, 1)
    _, da, db = module_rep.branches[len(module_rep.branches) // 2]
    oA, oB = apply_branch(eA, eB, module_rep.growth, da, db)
    assert oA.r == pytest.approx(0.2 * module_rep.growth, rel=1e-15)
    assert oB.r == pytest.approx(0.1 * module_rep.growth, rel=1e-15)
    assert (oA.pole, oB.pole) == (-1, 1)
