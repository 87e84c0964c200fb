"""Exact dense reference for small circuits.

dense_output forms the CZ-conjugated product of the inputs (which may be
non-positive quasi-states) by elementwise sign masks: the full 2^n x 2^n
operator.  exact_distribution measures the adaptive outcome tree of the
pole normal form (circuits.pole_normal_form) exactly, breadth-first over
one array of all branches, holding operators only on a window: the qubits
that a measured neighbour has entangled and that are not measured yet.
Every input there is at pole +1, so the (1, 1) entry of its operator is
exactly 0, and it stays 0 through every CZ sign and every other qubit's
measurement: a window qubit is held on three codes, (0, 0), (0, 1) and
(1, 0), so a branch on w qubits has 3^w entries, not 4^w.  A qubit joins
the window with its code vector when its first neighbour is measured, and
measuring a vertex sums its code slices, each times an outcome weight and
the signs of its CZ edges to the rest of the window; a vertex that no
earlier measurement reached is the same sum over its own three entries, so
on a chain measured end to end the largest operator is on two qubits.  The
branches come out in breadth-first order and are sorted once into an
outcomes.OutcomeTable; dense_peak estimates the peak memory of that walk.
admit, the one admission rule of both dense oracles and of compare, raises
DenseTooLarge over DENSE_CAP qubits or an estimated peak over the available
memory.  normalize_counts and tv_distance work on the tables' arrays,
converting a plain bitstring dict to a table once, so no outcome string is
formatted between the sampler's counts and the TV distance, which sums p
and -q by outcomes.total.  tv_bound is the sampling bound that compare
judges the TV distance by.  Deliberately method-independent of the sampler:
no separable decompositions, no stabilizer shortcuts.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections.abc import Mapping
from functools import reduce

import numpy as np

from .circuits import ClusterCircuit, MeasurementRule
from .geometry import CylinderExtremum, to_bloch
from .outcomes import OutcomeTable, as_table, total

DENSE_CAP = 14

#: the kernel's memory report; its MemAvailable line estimates, in kB, what
#: new allocations can take without swapping
_MEMINFO = "/proc/meminfo"


class DenseTooLarge(ValueError):
    """A circuit over DENSE_CAP qubits, or whose dense cost exceeds the
    available memory."""


def extremum_matrix(e: CylinderExtremum) -> np.ndarray:
    """2x2 operator (I + x X + y Y + z Z)/2 of a cylinder extremum."""
    op = to_bloch(e)
    return 0.5 * np.array([[1.0 + op.z, op.x - 1j * op.y], [op.x + 1j * op.y, 1.0 - op.z]])


def _cz_signs(n: int, edges) -> np.ndarray:
    """(-1)^(sum over edges of s_u s_v) for every basis state, shape (2,)*n,
    qubit 0 most significant: one bit table, every edge at once."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    u, v = np.array(edges, dtype=int).reshape(-1, 2).T
    count = (bits[:, u] & bits[:, v]).sum(axis=1)
    return (1.0 - 2.0 * (count & 1)).reshape((2,) * n)


def dense_output(c: ClusterCircuit) -> np.ndarray:
    """Tensor product of the inputs conjugated by every CZ in the circuit.

    Each input's 2x2 operator joins as a Kronecker factor on the right.  CZ
    is real diagonal, so conjugation multiplies entry (s, t) by the
    product of the basis-state signs of s and t, applied in place.  Admitted
    at its own peak: the operator and the one before the last Kronecker
    step, 16 4^n + 4 4^n bytes (the sign table beside the operator is smaller
    up to DENSE_CAP), and 512 kiB for numpy's buffers.
    """
    admit(c, lambda c: 20 * 4**c.n_qubits + 2**19)
    rho = np.ones((1, 1), dtype=complex)
    for e in c.inputs:
        d = len(rho)
        rho = (rho.reshape(d, 1, d, 1) * extremum_matrix(e).reshape(1, 2, 1, 2)).reshape(2 * d, 2 * d)
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
    """Estimated peak bytes of exact_distribution on c, from the window walk
    of its pole normal form, on n XY-measured qubits.  Step j holds at most
    b = 2^j branches of complex operators on the window of w qubits,
    16 b 3^w bytes, and the measured qubit's sign rows, 48 bytes for each
    code of the r other window qubits.  Its peak is the largest of three
    phases (the grown input beside the old one and the
    joining qubits' code vector; the input beside the sign rows and both
    outcomes, 32 b 3^r bytes; the outcomes beside the branches pruning keeps)
    plus 3n + 58 bytes a branch (thrice the n outcome bits while concatenate
    doubles them, an angle and two complex phase rows, 8 + 32, and the prune
    mask over the doubled branches, 16 + 2) and numpy's buffers: up to three
    operands of a ufunc, each of at most getbufsize() entries and of no more
    than it iterates over, b 3^w at the join and outcomes, 3^(r+1) for the
    sign rows.  The result takes 50 + n + N + 3 ceil(N/8) bytes a branch, N
    the qubits of c: the last column, bits and prune mask, 16 + n + 2, the
    bits lifted to N, and from_bits's packed rows, sort order, sorted copies
    and sums, 3 ceil(N/8) + 32.  64 kiB covers the walk's Python objects."""
    full, c = c.n_qubits, c.normal_form.circuit
    peak = 0.0
    b = 1.0
    for v, new, window, _ in _window_walk(c):
        grown = 16 * b * 3 ** len(window)
        r = len(window) - (v in window)
        out = 32 * b * 3**r
        join = grown + grown / 3 ** len(new) + 24 * 3 ** len(new) if new else 0
        step = max(join, grown + out + 48 * 3**r, out * (2 - 0.5 / b))
        buffers = 48 * min(np.getbufsize(), max(b, 3) * 3 ** len(window))
        peak = max(peak, step + buffers + (3 * c.n_qubits + 58) * b)
        b *= 2
    return max(peak, (50 + c.n_qubits + full + 3 * -(-full // 8)) * b) + 2**16


def _available_memory() -> int:
    """Bytes of MemAvailable in _MEMINFO, or of physical memory by sysconf
    where that file is missing or unreadable or has no such line."""
    try:
        with open(_MEMINFO, encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def admit(c: ClusterCircuit, cost=dense_peak) -> None:
    """Raise DenseTooLarge, before any work, for a circuit whose oracle holds
    over DENSE_CAP qubits (the XY-measured ones at cost dense_peak, all n
    for dense_output) or whose cost(c) bytes exceed the available memory."""
    n = c.n_qubits
    if (c.normal_form.circuit.n_qubits if cost is dense_peak else n) > DENSE_CAP:
        raise DenseTooLarge(f"dense oracle capped at {DENSE_CAP} qubits")
    need, have = cost(c), _available_memory()
    if need > have:
        raise DenseTooLarge(
            f"dense oracle needs about {need:.3g} bytes at {n} qubits, "
            f"more than the {have:.3g} bytes of available memory"
        )


#: (row, column) bits of the three codes (0, 0), (0, 1) and (1, 0)
_CODE_BITS = np.array([[0, 0], [0, 1], [1, 0]])

#: CZ signs (-1)^(a r + b k) between the codes (a, b) of a measured qubit
#: (rows) and (r, k) of a neighbour (columns), and the signs of a qubit
#: without the edge; complex like the operators, so that no product casts
#: through a buffer
_EDGE_SIGNS = (1 - 2 * ((_CODE_BITS @ _CODE_BITS.T) & 1)).astype(complex)
_NO_EDGE = np.ones((3, 3), dtype=complex)


def _weights(top: np.ndarray, rest, linked) -> np.ndarray:
    """top (3,), a weight for each code of a measured qubit, times the CZ
    signs of its edges to its linked qubits in rest: shape (3, 3^len(rest)),
    one column per code of rest (the first qubit most significant)."""
    s = top[:, None]
    for u in rest:
        e = _EDGE_SIGNS if u in linked else _NO_EDGE
        s = (s[:, :, None] * e[:, None, :]).reshape(3, -1)
    return s


def exact_distribution(c: ClusterCircuit, prune: float = 1e-14) -> OutcomeTable:
    """Signed measure over outcome bitstrings, exact for any circuit whose
    pole normal form is within the dense cap, as an OutcomeTable with one
    entry per surviving branch, each lifted to c's n bits.

    Measures the normal form (every vertex XY-measured, every input at pole
    +1) breadth-first over one array t (branches, 3^w): every surviving
    branch's operator on the window (_window_walk), each qubit on its three
    codes; bits holds the branches' outcomes.  Measuring v is _outcomes over
    v's code axis of t, or over t itself with v's own three entries in the
    weights when v is outside the window.  The rule's
    azimuths are read for all branches at once; a branch's trace is its
    (0, 0)-code entry.  Values may be negative when inputs leave the unit
    cylinder; they always sum to 1 (trace preservation).
    """
    admit(c)
    nf = c.normal_form
    c = nf.circuit
    code = [extremum_matrix(e)[tuple(_CODE_BITS.T)] for e in c.inputs]
    bits = np.zeros((1, c.n_qubits), dtype=np.uint8)
    t = np.ones((1, 1), dtype=complex)
    for v, new, window, linked in _window_walk(c):
        b = len(t)
        if new:
            t = (t[:, :, None] * reduce(np.outer, [code[u] for u in new]).ravel()).reshape(b, -1)
        top = np.array([0.5, 1.0, 1.0], dtype=complex)
        if v in window:
            t = t.reshape(b, 3 ** window.index(v), 3, -1)
        else:
            t, top = t.reshape(b, 1, 1, -1), top * code[v]
        rest = [u for u in window if u != v]
        t = _outcomes(t, _weights(top, rest, linked), c.plan[v], bits)
        t = t.reshape(2 * b, -1)
        bits = np.concatenate([bits, bits])
        bits[b:, v] = 1
        keep = np.abs(np.real(t[:, 0])) >= prune
        if not keep.all():
            t, bits = t[keep], bits[keep]
    return OutcomeTable.from_bits(nf.lift(bits), np.real(t[:, 0]))


def _outcomes(t: np.ndarray, w: np.ndarray, rule: MeasurementRule, bits: np.ndarray) -> np.ndarray:
    """Both outcomes of the XY-plane measurement of the middle axis of t
    (branches, lo, k, hi) on every branch: shape (2, branches, lo, hi),
    outcome 0 first.  The axis holds the k = 3 codes of a window qubit, or
    k = 1 for a qubit outside the window, whose three entries are in w.  w
    (3, lo * hi) is each code's weight times the CZ signs of its edges to
    the other qubits.  Overwrites t, so that no temporary of its size is
    made.
    """
    b, lo, k, hi = t.shape
    part = [t[:, :, min(i, k - 1)] for i in range(3)]
    w = w.reshape(3, 1, lo, hi)
    out = np.empty((2, b, lo, hi), dtype=complex)
    # outcome o weighs code (0, 0) by 1/2 (in w), (0, 1) by +-e^{ia}/2 and
    # (1, 0) by +-e^{-ia}/2: out = A +- C, with A formed in out[0] and C in
    # the code (1, 0) slice, which is read last
    ph = 0.5 * np.exp(1j * rule.azimuths(bits)).reshape(b, 1, 1)
    np.multiply(part[0], w[0], out=out[0])
    np.multiply(part[1], w[1], out=out[1])
    out[1] *= ph
    tail = part[2]
    tail *= w[2]
    tail *= ph.conj()
    tail += out[1]
    np.subtract(out[0], tail, out=out[1])
    out[0] += tail
    return out


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

