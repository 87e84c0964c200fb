import math

import numpy as np
import pytest

from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.czdec import _rim_vectors, cz_pauli_output
from cylsim.geometry import TWO_PI, XY_PLANE, Z_BASIS, CylinderExtremum, CylinderOperator, Measurement
from cylsim.oracle import PAULI
from cylsim.sampler import default_rep

GRID_2X3_EDGES = (
    (0, 1), (1, 2),
    (3, 4), (4, 5),
    (0, 3), (1, 4), (2, 5),
)

FIXTURE_GRAPHS = {
    "chain2": (2, ((0, 1),)),
    "cycle4": (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "grid2x3": (6, GRID_2X3_EDGES),
}


@pytest.fixture(scope="session")
def rep():
    return default_rep()


def degree(n, edges, v):
    return sum(1 for e in edges if v in e)


def build_fixture(name: str, growth: float, adaptive: bool) -> ClusterCircuit:
    """Standard test circuit: per-vertex radii at 90% of the simulability
    bound, varied angles and poles, mixed Z/XY measurements."""
    n, edges = FIXTURE_GRAPHS[name]
    inputs = tuple(
        CylinderExtremum(
            0.9 * growth ** (-degree(n, edges, v)),
            0.4 + 0.9 * v,
            1 if v % 3 else -1,
        )
        for v in range(n)
    )
    plan = []
    for v in range(n):
        if v == n - 1:
            plan.append(MeasurementRule(Z_BASIS))
        elif adaptive and v > 0:
            plan.append(
                MeasurementRule(
                    XY_PLANE,
                    base_alpha=0.3 + 0.5 * v,
                    sign_deps=frozenset({v - 1}),
                    shift_deps=frozenset({0}) if v > 1 else frozenset(),
                )
            )
        else:
            plan.append(MeasurementRule(XY_PLANE, base_alpha=0.3 + 0.5 * v))
    return ClusterCircuit(n, edges, inputs, tuple(plan), tuple(range(n)))


def pauli_coefficients(rho: np.ndarray, n: int) -> np.ndarray:
    """Real coefficient tensor c with rho = (1/2^n) sum c[i...] sigma_i x ...

    Shape (4,)*n; for a unit-trace operator c[0,...,0] = 1.  One trace per
    Pauli string: a reference for small n only.
    """
    out = np.empty((4,) * n)
    for idx in np.ndindex(*(4,) * n):
        op = PAULI[idx[0]]
        for i in idx[1:]:
            op = np.kron(op, PAULI[i])
        out[idx] = float(np.real(np.trace(rho @ op)))
    return out


def reference_lp_feasibility(fA: float, fB: float, grid_size: int = 64, tol: float = 1e-6):
    """The CZ decomposition LP over all 16 Pauli coefficients and every grid pair.

    A reference for czdec.lp_feasibility, which solves the same LP on four
    coefficient rows over mirror pairs.  Returns (residual <= tol, residual,
    branches) alike.
    """
    from scipy.optimize import linprog

    angles = np.arange(grid_size) * (TWO_PI / grid_size)
    vecs = _rim_vectors(angles)
    prods = np.einsum("ij,kl->ikjl", vecs, vecs).reshape(16, -1)
    target = cz_pauli_output(fA, fB).ravel()
    n = prods.shape[1]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.block([[prods, -np.ones((16, 1))], [-prods, -np.ones((16, 1))]])
    b_ub = np.concatenate([target, -target])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
    if not res.success:
        return False, math.inf, []
    residual = float(res.x[-1])
    p = res.x[:n]
    branches = []
    for idx in np.nonzero(p > 1e-12)[0]:
        j, k = divmod(int(idx), grid_size)
        branches.append((float(p[idx]), float(angles[j]), float(angles[k])))
    total = sum(b[0] for b in branches)
    branches = [(w / total, a, b) for w, a, b in branches]
    return residual <= tol, residual, branches


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


def dense_measurement(phi1: float, phi2: float, outcome: int) -> tuple[float, np.ndarray]:
    """Two-qubit reference for the chain-steering closed forms of
    cylsim.purify: CZ, then an X measurement of qubit 1.

    Returns (probability, normalized post state of qubit 2), computed from
    state vectors independently of the closed forms.
    """
    v1 = np.array([math.cos(phi1 / 2.0), math.sin(phi1 / 2.0)])
    v2 = np.array([math.cos(phi2 / 2.0), math.sin(phi2 / 2.0)])
    psi = np.kron(v1, v2)
    psi[3] = -psi[3]  # CZ phase on |11>
    sign = -1.0 if outcome == 1 else 1.0
    xvec = np.array([1.0, sign]) / math.sqrt(2.0)
    post = xvec[0] * psi[:2] + xvec[1] * psi[2:]
    p = float(post @ post)
    if p <= 0.0:
        return 0.0, np.array([1.0, 0.0])
    return p, post / math.sqrt(p)
