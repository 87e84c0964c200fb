"""Exact dense reference for small circuits.

dense_output forms the CZ-conjugated product of the inputs (which may be
non-positive quasi-states) by elementwise sign masks: the full 2^n x 2^n
operator.  exact_distribution measures the adaptive outcome tree exactly,
breadth-first over one array of all branches, holding operators only on a
window: the qubits that a measured neighbour has entangled and that are not
measured yet.  A qubit joins the window as a Kronecker factor when its first
neighbour is measured, each CZ edge becomes a parity sign mask in the
measurement of its first endpoint, and a vertex that no earlier measurement
reached is folded in with its own measurement, so on a chain measured end to
end the largest operator is on two qubits.  The branches come out in
breadth-first order and are sorted once into an outcomes.OutcomeTable;
dense_peak estimates the peak memory of that walk.  normalize_counts and
tv_distance work on the tables' arrays, converting a plain bitstring dict to
a table once, so no outcome string is formatted between the sampler's
counts and the TV distance, which sums p and -q by outcomes.total.  tv_bound
is the sampling bound that compare judges the TV distance by.  Deliberately
method-independent of the sampler: no separable decompositions, no
stabilizer shortcuts.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

import numpy as np

from .circuits import ClusterCircuit, MeasurementRule
from .geometry import XY_PLANE, CylinderExtremum, to_bloch
from .outcomes import OutcomeTable, as_table, total

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


def _product(inputs, rho=None) -> np.ndarray:
    """rho (default [[1]]) times the inputs' 2x2 operators in order, each as a
    Kronecker factor on the right of the last two axes."""
    rho = np.ones((1, 1), dtype=complex) if rho is None else rho
    for e in inputs:
        d = rho.shape[-1]
        site = extremum_matrix(e).reshape(1, 2, 1, 2)
        rho = (rho.reshape(-1, d, 1, d, 1) * site).reshape(*rho.shape[:-2], 2 * d, 2 * d)
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


def _window_walk(c: ClusterCircuit):
    """The steps of exact_distribution and dense_peak: for each v of c.order,
    yield v, the qubits that join the window when v is measured (its
    unmeasured neighbours not yet in it, in index order), the window after
    they join (a tuple in basis order, v in it only if it joined at an
    earlier step) and v's unmeasured neighbours."""
    linked = [set() for _ in range(c.n_qubits)]
    for u, w in c.edges:
        linked[u].add(w)
        linked[w].add(u)
    window = []
    for v in c.order:
        for u in linked[v]:
            linked[u].discard(v)
        new = sorted(u for u in linked[v] if u not in window)
        window += new
        yield v, tuple(new), tuple(window), frozenset(linked[v])
        if v in window:
            window.remove(v)


def dense_peak(c: ClusterCircuit) -> float:
    """Estimated peak bytes of exact_distribution on c, from its window
    walk.  The branches double only at XY-plane steps: every input has z
    exactly +-1, so a Z-basis measurement has one outcome, and the oracle's
    default prune drops the other's zero-trace branch.  A step after j
    XY-plane steps holds at most b = 2^j branches of complex operators on the
    window; its peak is the largest of three phases: the last Kronecker
    factor of the qubits joining the window beside its result and the step's
    input, the grown input beside both outcomes and the per-branch vectors of
    the measurement (40 bytes per branch and window basis state), and the
    outcomes beside the branches that pruning keeps.  Each step adds 512
    bytes a branch for outcome bits and angles, the result 256 bytes for
    each table entry, one per surviving branch, and 512 kiB covers numpy's
    buffers (two of 128 kiB at most at a time)."""
    peak = 0.0
    b = 1.0
    for v, new, window, _ in _window_walk(c):
        grown = 16 * b * 4 ** len(window)
        m = 2 ** (len(window) - (v in window))
        out = 32 * b * m * m
        step = max(grown * 21 / 16 if new else 0, grown + out + 40 * b * m, out * (2 - 0.5 / b))
        peak = max(peak, step + 512 * b)
        b *= 2 if c.plan[v].kind == XY_PLANE else 1
    return max(peak, 256 * b) + 2**19


def _parity(qubits, marked) -> np.ndarray:
    """(-1)^(number of marked qubits in state 1) for each basis state of
    qubits, the first qubit most significant."""
    s = np.ones(1)
    for u in qubits:
        s = np.outer(s, (1.0, -1.0) if u in marked else (1.0, 1.0)).ravel()
    return s


def exact_distribution(c: ClusterCircuit, prune: float = 1e-14) -> OutcomeTable:
    """Signed measure over outcome bitstrings, exact for any dense-cap circuit,
    as an OutcomeTable with one entry per surviving branch.

    Measures breadth-first over one array t (branches, 2^w, 2^w): the
    operators of every surviving branch on the window, the w qubits that are
    entangled with a measured one and not measured themselves (_window_walk);
    bits holds the branches' outcomes.  A qubit joins the window as a
    Kronecker factor when a neighbour is measured, and the CZ edges of the
    measured vertex become parity sign masks in its measurement step
    (_outcomes if it is in the window, _folded_outcomes if not).  Adaptive
    angles are resolved for all branches at once.  Values may be negative when
    inputs leave the unit cylinder; they always sum to 1 (trace preservation).
    """
    n = c.n_qubits
    _check_cap(n)
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
            t = _outcomes(t, c.plan[v], bits, chi.reshape(lo, m // lo))
        else:
            t = _folded_outcomes(t, c.inputs[v], c.plan[v], bits, chi)
        t = t.reshape(2 * b, m, m)
        bits = np.concatenate([bits, bits])
        bits[b:, v] = 1
        keep = np.abs(np.real(np.trace(t, axis1=1, axis2=2))) >= prune
        if not keep.all():
            t, bits = t[keep], bits[keep]
    return OutcomeTable.from_bits(bits, np.real(t[:, 0, 0]))


def _outcomes(
    t: np.ndarray, rule: MeasurementRule, bits: np.ndarray, chi: np.ndarray
) -> np.ndarray:
    """Both outcomes of measuring the middle qubit of t, shape (branches, lo,
    2, hi, lo, 2, hi), on every branch: shape (2, branches, lo, hi, lo, hi),
    outcome 0 first.  chi (lo, hi) is the parity of the middle qubit's CZ
    edges to the others: the T01, T10 and T11 blocks take it on their
    columns, rows and both.  Overwrites t, so that no temporary of its size
    is made.
    """
    b, lo, _, hi = t.shape[:4]
    out = np.empty((2, b, lo, hi, lo, hi), dtype=complex)
    t00, t01, t10, t11 = (t[:, :, i, :, :, j] for i in (0, 1) for j in (0, 1))
    rows = chi[..., None, None]
    if rule.kind == XY_PLANE:
        # (|0> +- e^{ia}|1>)/sqrt(2) gives A +- C with A = (T00 + T11)/2 and
        # C = (e^{ia} T01 + e^{-ia} T10)/2.  Each operation writes a contiguous
        # half of out or copies, so numpy buffers at most one strided operand;
        # C is parked in T01 while out[0] takes A.
        ph = 0.5 * np.exp(1j * _branch_alpha(rule, bits)).reshape(b, 1, 1, 1, 1)
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


def _folded_outcomes(
    t: np.ndarray, e: CylinderExtremum, rule: MeasurementRule, bits: np.ndarray, chi: np.ndarray
) -> np.ndarray:
    """Both outcomes of measuring a vertex v outside the window, whose input
    e never joins it: shape (2, branches, m, m) for t (branches, m, m) and chi
    (m,) the parity of v's CZ edges to the window.

    With S_0 = 1 and S_1 = chi the CZ signs given s_v = 0, 1, outcome o is
    t * sum_ab M^o[a, b] S_a(x) S_b(y) = t * (g(y) + chi(x) h(y)), where
    M^o[a, b] = <e_o|a> rho_v[a, b] <b|e_o> for the outcome vector e_o,
    g = M^o_00 + M^o_01 chi and h = M^o_10 + M^o_11 chi.  Each factor is
    formed in place in out, so no temporary of its size is made.
    """
    b = len(t)
    vec = np.zeros((b, 2, 2), dtype=complex)
    if rule.kind == XY_PLANE:
        ph = np.exp(1j * _branch_alpha(rule, bits)) / math.sqrt(2.0)
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


def _branch_alpha(rule: MeasurementRule, bits: np.ndarray) -> np.ndarray:
    """resolve_alpha, bit for bit, for every row of outcome bits (branches, n)."""
    alpha = np.full(len(bits), rule.base_alpha)
    alpha[np.bitwise_xor.reduce(bits[:, list(rule.sign_deps)], axis=1) == 1] *= -1
    alpha[np.bitwise_xor.reduce(bits[:, list(rule.shift_deps)], axis=1) == 1] += math.pi
    return alpha


def tv_distance(p: Mapping, q: Mapping) -> float:
    """Half the L1 distance over the union support of two outcome tables, or
    plain bitstring mappings, which as_table converts once."""
    p, q = as_table(p), as_table(q)
    if len(p) and len(q) and p.n != q.n:
        raise ValueError(f"outcomes of {p.n} and {q.n} bits cannot be compared")
    diff = total(p.n if len(p) else q.n, [p, -q])
    # fsum is exactly rounded, so the order of the terms cannot show
    return 0.5 * math.fsum(np.abs(diff.mass).tolist())


def tv_bound(shots: int, support: int, delta: float = 1e-6) -> float:
    """TV distance that an empirical table of `shots` draws from a
    distribution with `support` outcomes exceeds with probability <= delta.

    E[TV] <= 1/2 sum_i sqrt(p_i / N) <= 1/2 sqrt(K / N) by Cauchy-Schwarz, and
    moving one draw changes TV by at most 1/N, so McDiarmid adds
    sqrt(ln(1/delta) / (2N)).
    """
    return 0.5 * math.sqrt(support / shots) + math.sqrt(math.log(1.0 / delta) / (2.0 * shots))


def normalize_counts(counts: Mapping) -> OutcomeTable:
    """Table of each count over the total, of a count table or a plain
    bitstring mapping; empty when the total is 0."""
    t = as_table(counts)
    total = t.mass.sum()
    if not total:
        return OutcomeTable(t.n, t.rows[:0], np.zeros(0))
    return OutcomeTable(t.n, t.rows, t.mass / total)


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

