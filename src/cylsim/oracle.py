"""Exact dense reference for small circuits.

Forms the CZ-conjugated product of the inputs (which may be non-positive
quasi-states) by elementwise sign masks, and measures the adaptive outcome
tree exactly, breadth-first over one array of all branches.  dense_output
returns the full 2^n x 2^n operator; exact_distribution folds the first
measurement into the product, so its largest operator is on n - 1 qubits.
Deliberately method-independent of the sampler: no separable decompositions,
no stabilizer shortcuts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .circuits import ClusterCircuit, MeasurementRule
from .geometry import XY_PLANE, CylinderExtremum, to_bloch

DENSE_CAP = 14

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def extremum_matrix(e: CylinderExtremum) -> np.ndarray:
    """2x2 operator (I + x X + y Y + z Z)/2 of a cylinder extremum."""
    op = to_bloch(e)
    return 0.5 * (PAULI[0] + op.x * PAULI[1] + op.y * PAULI[2] + op.z * PAULI[3])


def _cz_signs(n: int, edges) -> np.ndarray:
    """(-1)^(sum over edges of s_u s_v) for every basis state, shape (2,)*n."""
    signs = np.ones((2,) * n)
    for u, v in edges:
        bits_u = np.arange(2).reshape([2 if q == u else 1 for q in range(n)])
        bits_v = np.arange(2).reshape([2 if q == v else 1 for q in range(n)])
        signs = signs * np.where(bits_u * bits_v == 1, -1.0, 1.0)
    return signs


def _product(inputs) -> np.ndarray:
    """Kronecker product of the inputs' 2x2 operators in order; [[1]] for none."""
    rho = np.ones((1, 1), dtype=complex)
    for e in inputs:
        d = len(rho)
        site = extremum_matrix(e).reshape(1, 2, 1, 2)
        rho = (rho.reshape(d, 1, d, 1) * site).reshape(2 * d, 2 * d)
    return rho


def _check_cap(n: int) -> None:
    if n > DENSE_CAP:
        raise ValueError(f"dense backend capped at {DENSE_CAP} qubits, got {n}")


def dense_output(c: ClusterCircuit) -> np.ndarray:
    """Tensor product of the inputs conjugated by every CZ in the circuit.

    CZ is real diagonal, so conjugation multiplies entry (s, t) by the
    product of the basis-state signs of s and t, applied in place.
    """
    _check_cap(c.n_qubits)
    rho = _product(c.inputs)
    s = _cz_signs(c.n_qubits, c.edges).ravel()
    rho *= s[:, None]
    rho *= s
    return rho


def _first_outcomes(c: ClusterCircuit) -> np.ndarray:
    """Both outcomes of measuring v = c.order[0], shape (2, 2^(n-1), 2^(n-1)),
    without forming the 2^n x 2^n operator.

    With R the product of the other inputs in natural order, S_a the CZ sign
    vector of the others' basis states given s_v = a, and U = [S_0, S_1], the
    outcome o operator is R * (U M^o U^T) elementwise, where M^o[a, b] =
    P^o[b, a] rho_v[a, b] for the projector P^o = |e_o><e_o|.
    """
    n, v = c.n_qubits, c.order[0]
    rule = c.plan[v]
    signs = _cz_signs(n, c.edges)
    u = np.stack([signs.take(a, axis=v).ravel() for a in (0, 1)], axis=1)
    if rule.kind == XY_PLANE:
        # the first vertex has no dependencies, so its azimuth is base_alpha
        ph = np.exp(1j * rule.base_alpha)
        e = np.array([[1.0, ph], [1.0, -ph]]) / math.sqrt(2.0)
    else:
        e = np.eye(2)
    m = e.conj()[:, :, None] * e[:, None, :] * extremum_matrix(c.inputs[v])
    r = _product(c.inputs[:v] + c.inputs[v + 1 :])
    out = u @ m @ u.T
    out *= r
    return out


def exact_distribution(c: ClusterCircuit, prune: float = 1e-14) -> dict[str, float]:
    """Signed measure over outcome bitstrings, exact for any dense-cap circuit.

    Measures breadth-first: t holds the operator of every surviving branch on
    the m unmeasured qubits, kept in natural order, as one array (branches,
    2^m, 2^m), and bits the branches' outcomes.  The first measurement is
    folded into the product of the inputs (_first_outcomes), so the largest
    operator formed is on n - 1 qubits.  Adaptive angles are resolved for all
    branches at once.  Values may be negative when inputs leave the unit
    cylinder; they always sum to 1 (trace preservation).
    """
    n = c.n_qubits
    _check_cap(n)
    bits = np.zeros((1, n), dtype=np.uint8)
    for k, v in enumerate(c.order):
        m = 2 ** (n - 1 - k)
        if k == 0:
            t = _first_outcomes(c)
        else:
            lo = 2 ** sum(1 for u in c.order[k + 1 :] if u < v)
            t = _outcomes(t.reshape(len(t), lo, 2, m // lo, lo, 2, m // lo), c.plan[v], bits)
        b = len(bits)
        t = t.reshape(2 * b, m, m)
        bits = np.concatenate([bits, bits])
        bits[b:, v] = 1
        keep = np.abs(np.real(np.trace(t, axis1=1, axis2=2))) >= prune
        if not keep.all():
            t, bits = t[keep], bits[keep]
    text = (bits + ord("0")).tobytes().decode("ascii")
    return {text[i * n : (i + 1) * n]: float(x) for i, x in enumerate(np.real(t[:, 0, 0]))}


def _outcomes(t: np.ndarray, rule: MeasurementRule, bits: np.ndarray) -> np.ndarray:
    """Both outcomes of measuring the middle qubit of t, shape (branches, lo,
    2, hi, lo, 2, hi), on every branch: shape (2, branches, lo, hi, lo, hi),
    outcome 0 first.  Overwrites t, so that no temporary of its size is made.
    """
    b, lo, _, hi = t.shape[:4]
    out = np.empty((2, b, lo, hi, lo, hi), dtype=complex)
    t00, t01, t10, t11 = (t[:, :, i, :, :, j] for i in (0, 1) for j in (0, 1))
    if rule.kind == XY_PLANE:
        # (|0> +- e^{ia}|1>)/sqrt(2) gives A +- C with A = (T00 + T11)/2 and
        # C = (e^{ia} T01 + e^{-ia} T10)/2.  Each operation writes a contiguous
        # half of out or copies, so numpy buffers at most one strided operand;
        # C is parked in T01 while out[0] takes A.
        ph = 0.5 * np.exp(1j * _branch_alpha(rule, bits)).reshape(b, 1, 1, 1, 1)
        out[0], out[1] = t10, t01
        out[0] *= ph.conj()
        out[1] *= ph
        out[1] += out[0]
        t01[...] = out[1]
        out[0] = t00
        out[0] += t11
        out[0] *= 0.5
        np.subtract(out[0], t01, out=out[1])
        out[0] += t01
    else:
        out[0], out[1] = t00, t11
    return out


def _branch_alpha(rule: MeasurementRule, bits: np.ndarray) -> np.ndarray:
    """resolve_alpha, bit for bit, for every row of outcome bits (branches, n)."""
    alpha = np.full(len(bits), rule.base_alpha)
    alpha[np.bitwise_xor.reduce(bits[:, list(rule.sign_deps)], axis=1) == 1] *= -1
    alpha[np.bitwise_xor.reduce(bits[:, list(rule.shift_deps)], axis=1) == 1] += math.pi
    return alpha


def tv_distance(p: dict[str, float], q: dict[str, float]) -> float:
    """Half the L1 distance over the union support."""
    # fsum is exactly rounded, so the set's hash-seeded order cannot show
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def normalize_counts(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {k: v / total for k, v in counts.items()}


def partial_trace_keep(rho: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Marginal operator on the qubits in `keep` (sorted order)."""
    t = rho.reshape((2,) * (2 * n))
    remaining = list(range(n))
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        i = remaining.index(q)
        m = len(remaining)
        t = np.trace(t, axis1=i, axis2=m + i)
        t = t.reshape((2,) * (2 * (m - 1)))
        remaining.pop(i)
    k = len(keep)
    return t.reshape(2**k, 2**k)


def marginal_invariance_check(c: ClusterCircuit, region: set[int]) -> float:
    """Max-norm change of each side's marginal when cross-region CZs are added.

    For circuits whose inputs are all rim extrema with pole +1, the marginal
    of either region is unaffected by CZs crossing the cut; the returned
    deviation should vanish to numerical precision.
    """
    n = c.n_qubits
    region = set(region)
    other = sorted(set(range(n)) - region)
    inside = tuple(
        e for e in c.edges if not ((e[0] in region) ^ (e[1] in region))
    )
    rho_full = dense_output(c)
    rho_cut = dense_output(dataclasses.replace(c, edges=inside))
    dev = 0.0
    for keep in (sorted(region), other):
        if not keep:
            continue
        d = partial_trace_keep(rho_full, n, keep) - partial_trace_keep(rho_cut, n, keep)
        dev = max(dev, float(np.max(np.abs(d))))
    return dev


def pauli_coefficients(rho: np.ndarray, n: int) -> np.ndarray:
    """Real coefficient tensor c with rho = (1/2^n) sum c[i...] sigma_i x ...

    Shape (4,)*n; for a unit-trace operator c[0,...,0] = 1.
    """
    out = np.empty((4,) * n)
    for idx in np.ndindex(*(4,) * n):
        op = PAULI[idx[0]]
        for i in idx[1:]:
            op = np.kron(op, PAULI[i])
        val = np.trace(rho @ op)
        out[idx] = float(np.real(val))
    return out
