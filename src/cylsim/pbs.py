"""Qudit systems with a privileged basis: Z-basis plus equatorial measurements.

The unit state space is the normalized dual of those measurements.  Two
identities express any off-diagonal element of a unit-trace operator in
terms of equatorial outcome values, proving duals are Hermitian and
bounded.  For gates diagonal in the privileged basis, a Z8 phase-averaging
trick decomposes the (dephased) gate output into products of local dual
operators.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_D_ENUM = 12
MAX_N_DECOMP = 6

OMEGA8 = np.exp(2j * np.pi / 8.0)


def _sign_vectors(d: int) -> np.ndarray:
    """All (|0> + |1> +- |2> +- ... +- |d-1>)/sqrt(d), shape (2^(d-2), d).

    Rows run in itertools.product((1, -1), repeat=d - 2) order: the row
    index's bits, most significant first, mark minus signs on entries 2..d-1.
    """
    m = max(d - 2, 0)
    bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    v = np.ones((2**m, d))
    v[:, 2:] = 1.0 - 2.0 * bits
    return v / math.sqrt(d)


def offdiag_identity_check(rho: np.ndarray) -> tuple[float, float]:
    """Gaps of the two off-diagonal reconstruction identities (expected 0).

    First: <0|rho|1> + <1|rho|0> = -1 + d/2^(d-2) * sum_v <v|rho|v> over all
    sign vectors v.  Second: with <0|rho|1> = t exp(i w), the same sum with
    |0> rotated by exp(i w) recovers 2t.  Requires unit trace; the second
    identity additionally uses Hermiticity of the (0,1) pair.
    """
    d = rho.shape[0]
    if rho.shape != (d, d) or d < 2:
        raise ValueError("rho must be a d x d matrix with d >= 2")
    if d > MAX_D_ENUM:
        raise ValueError(f"sign-vector enumeration capped at d = {MAX_D_ENUM}")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("rho must have unit trace")
    scale = d / 2.0 ** (d - 2)

    vs = _sign_vectors(d)
    total = float(np.real(np.einsum("vi,ij,vj->", vs, rho, vs)))
    lhs1 = rho[0, 1] + rho[1, 0]
    gap1 = abs(lhs1 - (-1.0 + scale * total))

    t = abs(rho[0, 1])
    w = np.angle(rho[0, 1]) if t > 0 else 0.0
    vst = vs.astype(complex).copy()
    vst[:, 0] = vst[:, 0] * np.exp(1j * w)
    total2 = float(np.real(np.einsum("vi,ij,vj->", np.conj(vst), rho, vst)))
    gap2 = abs(2.0 * t - (-1.0 + scale * total2))
    return gap1, gap2


@dataclass(frozen=True)
class PhaseDecomposition:
    """Uniform mixture over Z8 tuples whose cross terms phase-cancel."""

    d: int
    a: tuple[int, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]
    site_coeff: complex  # per-site E_j coefficient, = (eta c)^{1/N}
    W: float
    terms: tuple[tuple[float, tuple[int, ...]], ...]  # (weight, v tuple)

    def site_factor(self, j: int, v_j: int) -> np.ndarray:
        d = self.d
        F = np.zeros((d, d), dtype=complex)
        F[self.a[j], self.a[j]] = 1.0
        wj = self.W ** (1.0 / len(self.a)) * self.site_coeff
        F[self.x[j], self.y[j]] += wj * OMEGA8**v_j
        F[self.y[j], self.x[j]] += np.conj(wj * OMEGA8**v_j)
        return F

    def reconstruct(self) -> np.ndarray:
        n = len(self.a)
        total = np.zeros((self.d**n, self.d**n), dtype=complex)
        for weight, vtuple in self.terms:
            total += weight * functools.reduce(np.kron, map(self.site_factor, range(n), vtuple))
        return total

    def target(self) -> np.ndarray:
        n = len(self.a)
        a, x, y = np.ravel_multi_index(tuple(zip(self.a, self.x, self.y)), (self.d,) * n)
        t = np.zeros((self.d**n, self.d**n), dtype=complex)
        t[a, a] = 1.0
        e = self.W * self.site_coeff**n
        t[x, y] += e
        t[y, x] += np.conj(e)
        return t


def phase_decompose(
    d: int,
    a,
    x,
    y,
    coeff: complex,
    W: float,
) -> PhaseDecomposition:
    """Z8 separable decomposition of |a><a| + W c (x><y| term) + h.c.

    coeff is the full N-site coefficient c; each site factor carries its
    principal N-th root.  Enumerates all 8^(N-1) tuples with the last entry
    fixed to minus the sum of the others, each with weight 1/8^(N-1).
    """
    a, x, y = tuple(a), tuple(x), tuple(y)
    n = len(a)
    if not (len(x) == len(y) == n):
        raise ValueError("a, x, y must have equal length")
    if x == y:
        raise ValueError("x and y must differ as strings")
    if n > MAX_N_DECOMP:
        raise ValueError(f"enumeration capped at N = {MAX_N_DECOMP}")
    site_coeff = complex(coeff) ** (1.0 / n)
    weight = 1.0 / 8 ** (n - 1)
    terms = []
    for head in itertools.product(range(8), repeat=n - 1):
        v_n = (-sum(head)) % 8
        terms.append((weight, head + (v_n,)))
    return PhaseDecomposition(
        d=d, a=a, x=x, y=y, site_coeff=site_coeff, W=float(W), terms=tuple(terms)
    )
