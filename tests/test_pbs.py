import math

import numpy as np
import pytest

from conftest import dual_membership, equatorial_vectors, max_dual_offdiag

from cylsim.pbs import (
    MAX_D_ENUM,
    offdiag_identity_check,
    phase_decompose,
    _sign_vectors,
)


def random_unit_trace(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m + m.conj().T
    return rho / np.trace(rho)


def test_sign_vectors_shape_and_norm():
    vs = _sign_vectors(4)
    assert vs.shape == (4, 4)
    assert np.allclose(np.sum(vs * vs, axis=1), 1.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_offdiag_identities_random(d):
    for seed in range(3):
        gap1, gap2 = offdiag_identity_check(random_unit_trace(d, seed))
        assert gap1 < 1e-12
        assert gap2 < 1e-12


def test_offdiag_identity_maximally_mixed():
    d = 3
    gap1, gap2 = offdiag_identity_check(np.eye(d) / d)
    assert gap1 < 1e-14 and gap2 < 1e-14


def test_offdiag_identity_validation():
    with pytest.raises(ValueError):
        offdiag_identity_check(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        offdiag_identity_check(np.eye(MAX_D_ENUM + 1) / (MAX_D_ENUM + 1))


def test_equatorial_vectors():
    vs = equatorial_vectors(3, 4)
    assert vs.shape == (16, 3)
    assert np.allclose(np.abs(vs), 1 / math.sqrt(3))
    assert np.allclose(vs[:, 0], 1 / math.sqrt(3))


def test_dual_membership_examples():
    d = 3
    assert dual_membership(np.eye(d) / d) == pytest.approx(1.0 / d)
    proj = np.zeros((d, d), dtype=complex)
    proj[0, 0] = 1.0
    assert dual_membership(proj) == pytest.approx(0.0, abs=1e-12)
    neg = -np.eye(d)
    assert dual_membership(neg) < 0


def test_max_dual_offdiag_qubit_is_half():
    # d = 2 unit cylinder: off-diagonal reach is 1/2
    assert max_dual_offdiag(2, grid=64) == pytest.approx(0.5, abs=1e-5)


def test_max_dual_offdiag_decreasing_in_d():
    # the off-diagonal reach does not increase with d: it is 1/2 for d = 2, 3
    # and 4, exactly on any even grid, whose equatorial phase pi is a grid point
    for d in (2, 3, 4):
        assert max_dual_offdiag(d, grid=16) == pytest.approx(0.5, abs=1e-5)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_phase_decompose_reconstructs(d, n):
    dec = phase_decompose(
        d,
        a=(0,) * n,
        x=(0,) * n,
        y=(1,) * n,
        coeff=0.3 * np.exp(0.7j),
        W=2.0,
    )
    gap = np.max(np.abs(dec.reconstruct() - dec.target()))
    assert gap < 1e-12
    assert len(dec.terms) == 8 ** (n - 1)
    assert sum(w for w, _ in dec.terms) == pytest.approx(1.0)


def test_phase_decompose_cross_terms_cancel():
    # every tuple individually has off-target cross terms; the mixture kills
    # them, so a single term must not equal the target
    dec = phase_decompose(2, (0, 0), (0, 0), (1, 1), 0.2, 1.0)
    w, v = dec.terms[0]
    single = np.kron(dec.site_factor(0, v[0]), dec.site_factor(1, v[1]))
    assert np.max(np.abs(single - dec.target())) > 1e-3


def test_phase_decompose_validation():
    with pytest.raises(ValueError):
        phase_decompose(2, (0,), (0, 1), (1,), 1.0, 1.0)
    with pytest.raises(ValueError):
        phase_decompose(2, (0, 0), (0, 1), (0, 1), 1.0, 1.0)
