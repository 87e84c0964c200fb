"""Acceptance gate: one criterion per test, one printed verdict line each."""

import itertools
import math

import numpy as np
import pytest

from conftest import FIXTURE_GRAPHS, build_fixture, dense_measurement, pauli_coefficients

from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.coarse import (
    LAMBDA_GROWN,
    PLAIN,
    BlockSpec,
    find_negativity_witness,
    lemma4_checks,
    s_estimate,
)
from cylsim.czdec import (
    LAMBDA,
    lp_feasibility,
    ppt_determinants,
    reconstructed_output,
    cz_pauli_output,
    separability_condition,
    symmetric_growth,
)
from cylsim.geometry import XY_PLANE, CylinderExtremum
from cylsim.oracle import (
    dense_output,
    exact_distribution,
    marginal_invariance_check,
    normalize_counts,
    tv_distance,
)
from cylsim.pbs import offdiag_identity_check, phase_decompose
from cylsim.purify import (
    ChainProtocol,
    branch_probs,
    failure_angle,
    site_success_prob,
)
from cylsim.sampler import sample_parallel


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_growth_constant():
    ok = abs(symmetric_growth() - 2.05817) <= 1e-5
    f = 1.0 / LAMBDA
    _, outer = ppt_determinants(f, f)
    ok = ok and abs(outer) <= 1e-12
    ok = ok and separability_condition(1.0, 1.0, LAMBDA, LAMBDA)
    _verdict(1, "growth constant and saturation", ok)


def test_criterion_02_separability_oracle_equivalence():
    ok = True
    for fA in np.linspace(0.0, 1.0, 20):
        for fB in np.linspace(0.0, 1.0, 20):
            _, outer = ppt_determinants(fA, fB)
            ok = ok and (separability_condition(fA, fB, 1.0, 1.0) == (outer >= 0))
    for fA in np.linspace(0.0, 1.0, 6):
        for fB in np.linspace(0.0, 1.0, 6):
            _, outer = ppt_determinants(fA, fB)
            if abs(outer) <= 1e-3:
                continue  # margin band: LP residual is inconclusive here
            feasible, residual, _ = lp_feasibility(fA, fB, grid_size=96, tol=1e-6)
            if outer >= 0:
                ok = ok and feasible
            else:
                ok = ok and (not feasible) and residual > 1e-3
    _verdict(2, "separability vs PPT and LP oracles", ok)


def test_criterion_03_stochastic_reconstruction(rep):
    rng = np.random.default_rng(17)
    f = 1.0 / rep.growth
    worst = 0.0
    for poleA, poleB in itertools.product((1, -1), repeat=2):
        for _ in range(8):
            tA, tB = rng.uniform(0.0, 2.0 * math.pi, 2)
            eA = CylinderExtremum(f, tA, poleA)
            eB = CylinderExtremum(f, tB, poleB)
            c = ClusterCircuit(
                2, ((0, 1),), (eA, eB), (MeasurementRule(XY_PLANE),) * 2, (0, 1)
            )
            dense = pauli_coefficients(dense_output(c), 2)
            gap = float(np.max(np.abs(reconstructed_output(eA, eB, rep) - dense)))
            worst = max(worst, gap)
    _verdict(3, f"stochastic reconstruction (max gap {worst:.2e})", worst <= 1e-6)


def test_criterion_04_sampling_tv(rep):
    shots = 100000
    worst = 0.0
    for name in FIXTURE_GRAPHS:
        for adaptive in (False, True):
            c = build_fixture(name, rep.growth, adaptive=adaptive)
            counts = sample_parallel(c, shots, seed=23, rep=rep, threads=4)
            tv = tv_distance(normalize_counts(counts), exact_distribution(c))
            worst = max(worst, tv)
    _verdict(4, f"sampler TV at {shots} shots (max {worst:.4f})", worst <= 0.02)


def test_criterion_05_two_block_threshold():
    est = s_estimate(BlockSpec(1, 2, PLAIN), theta_grid=256, bisect_tol=5e-5)
    ok = abs(est.lower - 0.5) <= 2e-4 and abs(est.upper - 0.5) <= 2e-4
    target = 1.0 / (2.0 * LAMBDA**3)
    est_g = s_estimate(BlockSpec(1, 2, LAMBDA_GROWN), theta_grid=512, bisect_tol=2e-6)
    ok = ok and abs(est_g.lower - target) <= 1e-5 and abs(est_g.upper - target) <= 1e-5
    _verdict(
        5,
        f"1x2 thresholds ([{est.lower:.5f},{est.upper:.5f}] and "
        f"[{est_g.lower:.7f},{est_g.upper:.7f}] vs {target:.7f})",
        ok,
    )


def test_criterion_06_coarse_graining_2x2():
    est = s_estimate(BlockSpec(2, 2, LAMBDA_GROWN), theta_grid=64, bisect_tol=5e-5)
    margin = 1.0 / math.cos(math.pi / est.cert_grid) - 1.0
    ok = est.lower >= 0.069 and est.lower <= 0.0698 <= est.upper
    _verdict(
        6,
        f"2x2 grown bracket [{est.lower:.5f},{est.upper:.5f}], "
        f"certification margin {margin:.2e}",
        ok,
    )


def test_criterion_07_join_monotonicity():
    r1 = lemma4_checks(
        BlockSpec(1, 2), BlockSpec(1, 2), BlockSpec(2, 2),
        theta_grid=16, bisect_tol=1e-3,
    )
    r2 = lemma4_checks(
        BlockSpec(2, 2), BlockSpec(2, 2), BlockSpec(2, 4),
        theta_grid=16, bisect_tol=1e-3,
    )
    _verdict(7, "join monotonicity on both fixture pairs", r1["all_ok"] and r2["all_ok"])


def test_criterion_08_upper_bound_witness():
    b = BlockSpec(6, 7, PLAIN)
    hit = find_negativity_witness(b, (0.130, 0.136, 0.140, 0.145), restarts=2)
    ok = hit is not None and hit[0] <= 0.145
    found = f"r = {hit[0]:.3f}" if hit else "none"
    _verdict(8, f"6x7 negativity witness ({found})", ok)


def test_criterion_09_marginal_invariance():
    def circuit(n, edges):
        return ClusterCircuit(
            n,
            edges,
            tuple(CylinderExtremum(0.7, 0.3 * v + 0.1, 1) for v in range(n)),
            (MeasurementRule(XY_PLANE),) * n,
            tuple(range(n)),
        )

    dev1 = marginal_invariance_check(circuit(2, ((0, 1),)), {0})
    dev2 = marginal_invariance_check(
        circuit(4, ((0, 1), (2, 3), (0, 2), (1, 3))), {0, 1}
    )
    worst = max(dev1, dev2)
    _verdict(9, f"marginal invariance (max deviation {worst:.2e})", worst <= 1e-12)


def test_criterion_10_pbs_identities():
    rng = np.random.default_rng(31)
    worst_id = 0.0
    for d in (2, 3, 4):
        for _ in range(3):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = m + m.conj().T
            rho = rho / np.trace(rho)
            worst_id = max(worst_id, *offdiag_identity_check(rho))
    worst_rec = 0.0
    for n in (2, 3):
        for d in (2, 3):
            coeff = complex(rng.normal(), rng.normal()) * 0.1
            dec = phase_decompose(d, (0,) * n, (1,) * n, (0,) * n, coeff, W=2.0)
            worst_rec = max(
                worst_rec, float(np.max(np.abs(dec.reconstruct() - dec.target())))
            )
    ok = worst_id <= 1e-12 and worst_rec <= 1e-10
    _verdict(
        10,
        f"qudit identities (gaps {worst_id:.2e}, {worst_rec:.2e})",
        ok,
    )


def test_criterion_11_purification():
    proto = ChainProtocol((0.18 * math.pi, 0.32 * math.pi, 0.31 * math.pi))
    p = site_success_prob(proto)
    r = proto.r_max()
    ok = abs(p - 0.73) <= 0.005 and abs(r - 0.844) <= 0.005
    worst = 0.0
    grid = np.linspace(0.01, math.pi / 2 - 0.01, 50)
    for phi1 in grid:
        for phi2 in grid:
            p1, _ = branch_probs(phi1, phi2)
            prob1, _ = dense_measurement(phi1, phi2, 1)
            prob0, post0 = dense_measurement(phi1, phi2, 0)
            ang0 = 2.0 * math.atan2(post0[1], post0[0])
            worst = max(
                worst,
                abs(p1 - prob1),
                abs((1.0 - p1) - prob0),
                abs(math.cos(ang0) - math.cos(failure_angle(phi1, phi2))),
                abs(math.sin(ang0) - math.sin(failure_angle(phi1, phi2))),
            )
    ok = ok and worst <= 1e-12
    _verdict(
        11,
        f"purification chain (p = {p:.5f}, r_max = {r:.5f}, dense gap {worst:.2e})",
        ok,
    )
