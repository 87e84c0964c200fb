import math
from functools import reduce

import numpy as np
import pytest

from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.coarse import _EDGE, _SITE, BlockSpec, _angles, _coordinate_descent, _Frontier
from cylsim.czdec import _rim_vectors, cz_pauli_output
from cylsim.geometry import TWO_PI, XY_PLANE, Z_BASIS, CylinderExtremum, CylinderOperator
from cylsim.oracle import _window_walk, admit, extremum_matrix
from cylsim.outcomes import OutcomeTable
from cylsim.sampler import default_rep

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

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


def z_measured_grid3x3(growth: float) -> ClusterCircuit:
    """The 3x3 grid with vertices 1 and 4 Z-measured at radius 0.95, far past
    their bounds, and every other radius at 90% of its bound; the XY steps
    take the previous outcome's sign."""
    edges = tuple((3 * r + q, 3 * r + q + 1) for r in range(3) for q in range(2))
    edges += tuple((v, v + 3) for v in range(6))
    inputs = tuple(
        CylinderExtremum(0.95 if v in (1, 4) else 0.9 * growth ** (-degree(9, edges, v)),
                         0.4 + 0.9 * v, 1 if v % 3 else -1)
        for v in range(9)
    )
    plan = tuple(
        MeasurementRule(Z_BASIS) if v in (1, 4) else
        MeasurementRule(XY_PLANE, 0.3 + 0.5 * v, frozenset({v - 1} if v else ()))
        for v in range(9)
    )
    return ClusterCircuit(9, edges, inputs, plan, tuple(range(9)))


def resolve_alpha(rule: MeasurementRule, outcomes: dict[int, int]) -> float:
    """The azimuth of rule given earlier outcomes, by vertex, one scalar step
    at a time: the reference for MeasurementRule.azimuths."""
    alpha = rule.base_alpha
    if sum(outcomes[d] for d in rule.sign_deps) % 2:
        alpha = -alpha
    if sum(outcomes[d] for d in rule.shift_deps) % 2:
        alpha += math.pi
    return alpha


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


def _product(inputs, rho) -> np.ndarray:
    """rho times the inputs' 2x2 operators in order, each as a Kronecker
    factor on the right of the last two axes."""
    for e in inputs:
        d = rho.shape[-1]
        site = extremum_matrix(e).reshape(1, 2, 1, 2)
        rho = (rho.reshape(-1, d, 1, d, 1) * site).reshape(*rho.shape[:-2], 2 * d, 2 * d)
    return rho


def _parity(qubits, marked) -> np.ndarray:
    """(-1)^(number of marked qubits in state 1) for each basis state of
    qubits, the first qubit most significant."""
    s = np.ones(1)
    for u in qubits:
        s = np.outer(s, (1.0, -1.0) if u in marked else (1.0, 1.0)).ravel()
    return s


def reference_window_distribution(c: ClusterCircuit, prune: float = 1e-14) -> OutcomeTable:
    """Breadth-first window oracle on full (branches, 2^w, 2^w) operators: a
    reference for oracle.exact_distribution, which holds each window qubit on
    three codes.

    A qubit joins the window as a Kronecker factor when a neighbour is
    measured, and the CZ edges of the measured vertex become parity sign
    masks in its measurement step (_window_outcomes if it is in the window,
    _folded_outcomes if not).  The prune rule is the oracle's: a branch stays
    while |Re trace| >= prune.
    """
    n = c.n_qubits
    admit(c)
    bits = np.zeros((1, n), dtype=np.uint8)
    t = np.ones((1, 1, 1), dtype=complex)
    for v, new, window, linked in _window_walk(c):
        t = _product([c.inputs[u] for u in new], t)
        rest = [u for u in window if u != v]
        chi = _parity(rest, linked)
        b, m = len(t), len(chi)
        if v in window:
            lo = 2 ** window.index(v)
            t = t.reshape(b, lo, 2, m // lo, lo, 2, m // lo)
            t = _window_outcomes(t, c.plan[v], bits, chi.reshape(lo, m // lo))
        else:
            t = _folded_outcomes(t, c.inputs[v], c.plan[v], bits, chi)
        t = t.reshape(2 * b, m, m)
        bits = np.concatenate([bits, bits])
        bits[b:, v] = 1
        keep = np.abs(np.real(np.trace(t, axis1=1, axis2=2))) >= prune
        if not keep.all():
            t, bits = t[keep], bits[keep]
    return OutcomeTable.from_bits(bits, np.real(t[:, 0, 0]))


def _window_outcomes(t, rule, bits, chi):
    """Both outcomes of measuring the middle qubit of t, shape (branches, lo,
    2, hi, lo, 2, hi), on every branch: shape (2, branches, lo, hi, lo, hi),
    outcome 0 first.  chi (lo, hi) is the parity of the middle qubit's CZ
    edges to the others: the T01, T10 and T11 blocks take it on their
    columns, rows and both.  Overwrites t."""
    b, lo, _, hi = t.shape[:4]
    out = np.empty((2, b, lo, hi, lo, hi), dtype=complex)
    t00, t01, t10, t11 = (t[:, :, i, :, :, j] for i in (0, 1) for j in (0, 1))
    rows = chi[..., None, None]
    if rule.kind == XY_PLANE:
        # (|0> +- e^{ia}|1>)/sqrt(2) gives A +- C with A = (T00 + T11)/2 and
        # C = (e^{ia} T01 + e^{-ia} T10)/2; C is parked in T01
        ph = 0.5 * np.exp(1j * rule.azimuths(bits)).reshape(b, 1, 1, 1, 1)
        out[0], out[1] = t10, t01
        out[0] *= ph.conj() * rows
        out[1] *= ph * chi
        out[1] += out[0]
        t01[...] = out[1]
        out[0] = t11
        out[0] *= chi
        out[0] *= rows
        out[0] += t00
        out[0] *= 0.5
        np.subtract(out[0], t01, out=out[1])
        out[0] += t01
    else:
        out[0], out[1] = t00, t11
        out[1] *= chi
        out[1] *= rows
    return out


def _folded_outcomes(t, e, rule, bits, chi):
    """Both outcomes of measuring a vertex v outside the window, whose input
    e never joins it: shape (2, branches, m, m) for t (branches, m, m) and chi
    (m,) the parity of v's CZ edges to the window.

    With S_0 = 1 and S_1 = chi the CZ signs given s_v = 0, 1, outcome o is
    t * sum_ab M^o[a, b] S_a(x) S_b(y) = t * (g(y) + chi(x) h(y)), where
    M^o[a, b] = <e_o|a> rho_v[a, b] <b|e_o> for the outcome vector e_o,
    g = M^o_00 + M^o_01 chi and h = M^o_10 + M^o_11 chi.
    """
    b = len(t)
    vec = np.zeros((b, 2, 2), dtype=complex)
    if rule.kind == XY_PLANE:
        ph = np.exp(1j * rule.azimuths(bits)) / math.sqrt(2.0)
        vec[:, :, 0] = 1.0 / math.sqrt(2.0)
        vec[:, 0, 1], vec[:, 1, 1] = ph, -ph
    else:
        vec[:, 0, 0] = vec[:, 1, 1] = 1.0
    m = vec.conj()[..., :, None] * vec[..., None, :] * extremum_matrix(e)
    out = np.empty((2,) + t.shape, dtype=complex)
    for o in (0, 1):
        g = m[:, o, 0, 1, None] * chi
        g += m[:, o, 0, 0, None]
        h = m[:, o, 1, 1, None] * chi
        h += m[:, o, 1, 0, None]
        np.multiply(h[:, None, :], chi[:, None], out=out[o])
        out[o] += g[:, None, :]
        out[o] *= t
    return out


def measure_prob(op: CylinderOperator, kind: str, alpha: float, outcome: int) -> float:
    """Born-rule value for the given outcome (0 or 1) of a Z-basis measurement
    (alpha unused) or an XY-plane measurement of cos(alpha)X + sin(alpha)Y.

    For operators outside the unit cylinder the value can be negative; it is
    returned as a signed quasi-probability, not an error.
    """
    if kind not in (Z_BASIS, XY_PLANE):
        raise ValueError(f"unknown measurement kind {kind!r}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    sign = 1.0 if outcome == 0 else -1.0
    if kind == Z_BASIS:
        return 0.5 * (1.0 + sign * op.z)
    return 0.5 * (1.0 + sign * (op.x * math.cos(alpha) + op.y * math.sin(alpha)))


def equatorial_vectors(d: int, grid: int) -> np.ndarray:
    """Product phase grid of unbiased vectors (1, e^{i p1}, ...)/sqrt(d)."""
    phases = 2.0 * np.pi * np.arange(grid) / grid
    combos = np.indices((grid,) * (d - 1)).reshape(d - 1, grid ** (d - 1))
    v = np.ones((grid ** (d - 1), d), dtype=complex)
    v[:, 1:] = np.exp(1j * phases[combos.T])
    return v / math.sqrt(d)


def dual_membership(rho: np.ndarray, grid: int = 16) -> float:
    """Minimum measurement value over basis projectors and an equatorial grid:
    the reference for membership in the qudit dual.

    A nonnegative result certifies membership at the grid resolution; the
    input need not have unit trace (cone membership test).
    """
    d = rho.shape[0]
    best = min(float(np.real(rho[j, j])) for j in range(d))
    vs = equatorial_vectors(d, grid)
    vals = np.real(np.einsum("vi,ij,vj->v", np.conj(vs), rho, vs))
    return min(best, float(np.min(vals)))


def max_dual_offdiag(d: int, grid: int = 64, tol: float = 1e-9) -> float:
    """Largest t with |0><0| + t(|0><1| + |1><0|) in the dual, by bisection."""
    base = np.zeros((d, d), dtype=complex)
    base[0, 0] = 1.0
    off = np.zeros((d, d), dtype=complex)
    off[0, 1] = off[1, 0] = 1.0
    lo, hi = 0.0, 1.0
    while dual_membership(base + hi * off, grid) >= -tol:
        lo = hi
        hi *= 2.0
        if hi > 16.0:
            return lo
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if dual_membership(base + mid * off, grid) >= -tol:
            lo = mid
        else:
            hi = mid
    return lo


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


def _along(factor: np.ndarray, ndim: int, *axes: int) -> np.ndarray:
    """View of a per-code factor that broadcasts along the given axes (ascending)."""
    shape = [1] * ndim
    for ax in axes:
        shape[ax] = 3
    return factor.reshape(shape)


def code_tensor(b: BlockSpec, order=None) -> np.ndarray:
    """Block factors multiplied out over the codes (1, a, conj(a)) per site,
    in units of 2^-n: shape (3,)*n, axis p for site order[p] (default: site
    order), every entry +-1 as int8.  The block value is
    2^-n sum_v C_v prod_i x_i(v_i) with x_i = (1, a_i, conj(a_i))."""
    pos = np.argsort(order) if order is not None else np.arange(b.n)
    site, edge = (2 * _SITE).astype(np.int8), _EDGE.astype(np.int8)
    # per axis, its site factor times the edges to earlier axes; the tensor
    # then grows by one axis at a time
    factors = [_along(site, p + 1, p) for p in range(b.n)]
    for u, v in b.edges():
        pu, pv = sorted((pos[u], pos[v]))
        factors[pv] = factors[pv] * _along(edge, pv + 1, pu, pv)  # _EDGE is symmetric
    return reduce(lambda C, f: C[..., None] * f, factors, np.ones((), np.int8))


def reference_coeff_tensor(b: BlockSpec, order=None) -> np.ndarray:
    """The dense real coefficient tensor D of shape (3,)*n by broadcasting,
    axis p for site order[p]: the code tensor's integers taken to the
    per-site basis (1, Re a, Im a) one axis at a time, codes (c0, c1, c2)
    to (c0, c1 + c2, i (c1 - c2)), then the sign i^m = (-1)^(m/2) of the m
    Im codes of each entry (the entries of odd m are 0), in units of 2^-n.
    Every step is exact in integers."""
    n = b.n
    T = code_tensor(b, order).astype(np.int32)
    for i in range(n):
        x = T.reshape(3**i, 3, -1)
        im = x[:, 1] - x[:, 2]
        x[:, 1] += x[:, 2]
        x[:, 2] = im
    ims = reduce(np.add, [_along(np.array([0, 0, 1], np.int8), n, i) for i in reversed(range(n))])
    return T * (1 - (ims & 2)) * 2.0**-n


def scatter(terms, n: int) -> np.ndarray:
    """The dense tensor of shape (3,)*n with the given (index, value) terms."""
    index, value = terms
    D = np.zeros(3**n)
    D[index] = value
    return D.reshape((3,) * n)


def to_terms(D: np.ndarray):
    """The nonzero entries of a dense tensor as (flat index, value) terms,
    in the order of its axes."""
    index = np.flatnonzero(D)
    return index, np.ravel(D)[index]


def reference_rounding_bound(D: np.ndarray, radii) -> float:
    """gamma_{5n} sum_u |D_u| prod_i w_i(u_i) with w_i = (1, rho_i/2, rho_i/2),
    summed in floats one leading axis of |D| at a time: the forward error
    bound of a certification scan over any dense tensor D."""
    t = np.abs(D)
    for rho in radii:
        x = t.reshape(3, -1)
        t = (x[1] + x[2]) * (rho / 2.0) + x[0]
    nu = 5 * D.ndim * 2.0**-53
    return nu / (1.0 - nu) * float(t[0])


def conjecture_fast_path(b: BlockSpec, r: float, restarts: int = 8, seed: int = 0):
    """Least value over the starts of find_negativity_witness at one radius,
    the all-zero angles and restarts random {0, pi} patterns drawn from
    seed, and the angles where it ended: the descents of every start, where
    the hunt stops at the first negative one."""
    radii = b.radii(r)
    rng = np.random.default_rng(seed)
    starts = [np.ones(b.n)] + [rng.choice([-1, 1], size=b.n) for _ in range(restarts)]
    descents = (_coordinate_descent(_Frontier(b, s * (radii / 2.0)), radii) for s in starts)
    v, a = min(descents, key=lambda t: t[0])  # ties go to the earliest start
    return v, _angles(a)
