import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import dense_measurement

from cylsim.purify import (
    P_C,
    ChainProtocol,
    branch_probs,
    failure_angle,
    percolation_verdict,
    site_success_prob,
)

HALF_PI = math.pi / 2.0
small_angles = st.floats(0.01, HALF_PI - 0.01)


def test_branch_probs_examples():
    assert branch_probs(HALF_PI / 2, HALF_PI / 2)[0] == pytest.approx(
        0.5 * (1 - math.sin(HALF_PI / 2) * math.cos(HALF_PI / 2))
    )
    assert branch_probs(0.0, HALF_PI)[0] == pytest.approx(0.5)
    assert branch_probs(HALF_PI, 0.0)[0] == pytest.approx(0.0)
    p1, p0 = branch_probs(0.18 * math.pi, 0.32 * math.pi)
    assert p1 == pytest.approx(0.3564448, abs=1e-6)
    assert p1 + p0 == 1.0


def test_failure_angle_examples():
    # carrier at 0 leaves the partner untouched
    assert failure_angle(0.0, 0.7) == pytest.approx(0.7)
    # partner at 0 collapses to 0 regardless of the carrier
    assert failure_angle(0.9, 0.0) == pytest.approx(0.0)


def success_angle(phi1: float, phi2: float) -> float:
    """Post-measurement angle on outcome 1; pi/2 when phi1 + phi2 = pi/2."""
    c1, s1 = math.cos(phi1 / 2.0), math.sin(phi1 / 2.0)
    c2, s2 = math.cos(phi2 / 2.0), math.sin(phi2 / 2.0)
    return 2.0 * math.atan2((c1 + s1) * s2, (c1 - s1) * c2)


def test_success_angle_complementary_pair():
    # under psi + phi = pi/2 the success branch lands on |+>
    for psi in (0.2, 0.6, 1.1):
        assert success_angle(psi, HALF_PI - psi) == pytest.approx(HALF_PI, abs=1e-12)


@given(small_angles, small_angles)
def test_closed_forms_match_dense(phi1, phi2):
    p1, p0 = branch_probs(phi1, phi2)
    prob1, post1 = dense_measurement(phi1, phi2, 1)
    prob0, post0 = dense_measurement(phi1, phi2, 0)
    assert p1 == pytest.approx(prob1, abs=1e-12)
    assert p0 == pytest.approx(prob0, abs=1e-12)
    ang0 = 2.0 * math.atan2(post0[1], post0[0])
    assert math.cos(ang0) == pytest.approx(math.cos(failure_angle(phi1, phi2)), abs=1e-9)
    assert math.sin(ang0) == pytest.approx(math.sin(failure_angle(phi1, phi2)), abs=1e-9)


def test_chain_protocol_validation():
    with pytest.raises(ValueError):
        ChainProtocol(())
    with pytest.raises(ValueError):
        # grossly violates psi + phi = pi/2
        ChainProtocol((0.18 * math.pi, 0.5 * math.pi))
    ChainProtocol((0.18 * math.pi, 0.32 * math.pi, 0.31 * math.pi))


def test_measurement_pairs_structure():
    proto = ChainProtocol((0.18 * math.pi, 0.32 * math.pi, 0.31 * math.pi))
    pairs = proto.measurement_pairs()
    assert len(pairs) == 3
    assert pairs[0] == (0.18 * math.pi, 0.32 * math.pi)
    # last round target is derived to complement the current carrier angle
    psi, phi = pairs[-1]
    assert psi + phi == pytest.approx(HALF_PI)


def test_published_chain_values():
    proto = ChainProtocol((0.18 * math.pi, 0.32 * math.pi, 0.31 * math.pi))
    assert site_success_prob(proto) == pytest.approx(0.7308411, abs=1e-6)
    assert proto.r_max() == pytest.approx(0.8443279, abs=1e-6)


def simulate_chain(protocol: ChainProtocol, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of the site success probability."""
    pairs = protocol.measurement_pairs()
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    u = rng.random((trials, len(pairs)))
    alive = np.ones(trials, dtype=bool)
    success = np.zeros(trials, dtype=bool)
    for k, (psi, phi) in enumerate(pairs):
        p1, _ = branch_probs(psi, phi)
        hit = alive & (u[:, k] < p1)
        success |= hit
        alive &= ~hit
    return float(np.mean(success))


def test_simulate_chain_agrees():
    proto = ChainProtocol((0.18 * math.pi, 0.32 * math.pi, 0.31 * math.pi))
    mc = simulate_chain(proto, trials=200000, seed=4)
    assert mc == pytest.approx(site_success_prob(proto), abs=0.005)


def test_percolation_verdict_strict():
    assert not percolation_verdict(P_C)
    assert percolation_verdict(P_C + 1e-6)
    with pytest.raises(ValueError):
        percolation_verdict(1.2)
