"""Separability of the CZ gate acting on products of cylinder extrema.

The CZ output on a pair of rim extrema admits a convex decomposition into
products of larger-radius rim extrema exactly when a quadratic inequality
in the radius ratios holds.  The symmetric critical growth is

    LAMBDA = sqrt(1 / (sqrt(5) - 2)) ~= 2.05817

This module evaluates the criterion, produces the explicit 4x4 Pauli
coefficient matrix of the CZ output, and builds the decomposition at equal
ratios f in closed form: five branches, two of them mirror pairs (see
build_decomposition).  lp_feasibility, an LP over discretized rim angles
that fits fA != fB too, stays as the independent judge of the criterion;
scipy's LP solver is imported only when it runs.  The resulting
StochasticRep, which records its residual over all 16 coefficients, drives
the sampler: one CZ application becomes a radius growth plus a sampled pair
of Z-rotation offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, CylinderExtremum, canonical_angle

#: symmetric critical growth rate, root of 1 - 4/g^2 - 1/g^4 = 0
LAMBDA = math.sqrt(1.0 / (math.sqrt(5.0) - 2.0))

#: max-norm residual a representation must meet over all 16 coefficients
REP_TOL = 1e-6


def symmetric_growth() -> float:
    """The minimal symmetric growth factor for which the CZ output separates."""
    return LAMBDA


def separability_condition(
    rA: float, rB: float, RA: float, RB: float, tol: float = 1e-12
) -> bool:
    """Whether CZ(Cyl(rA) x Cyl(rB)) is Cyl(RA), Cyl(RB)-separable.

    True iff 1 >= (rA/RA + rB/RB)^2 + (rA/RA)^2 (rB/RB)^2, with tol of
    slack so the saturated critical point (1, 1, lambda, lambda) counts as
    separable despite rounding.  A zero output radius with a nonzero input
    radius is degenerate and yields False.
    """
    if min(rA, rB, RA, RB) < 0.0:
        raise ValueError("radii must be nonnegative")
    if RA == 0.0:
        if rA > 0.0:
            return False
        fA = 0.0
    else:
        fA = rA / RA
    if RB == 0.0:
        if rB > 0.0:
            return False
        fB = 0.0
    else:
        fB = rB / RB
    return (fA + fB) ** 2 + (fA * fB) ** 2 <= 1.0 + tol


def cz_pauli_output(rA: float, rB: float) -> np.ndarray:
    """Pauli coefficient matrix of CZ applied to the extrema [1,rA,0,1] x [1,rB,0,1].

    Entry (i, j) is the coefficient of sigma_i x sigma_j with ordering
    (I, X, Y, Z); normalization fixes c[0,0] = 1.
    """
    return np.array(
        [
            [1.0, rB, 0.0, 1.0],
            [rA, 0.0, 0.0, rA],
            [0.0, 0.0, rA * rB, 0.0],
            [1.0, rB, 0.0, 1.0],
        ]
    )


def ppt_determinants(fA: float, fB: float) -> tuple[float, float]:
    """Inner and outer block determinants of the partially transposed output.

    For fA, fB >= 0 the output (at unit target radii, ratios fA, fB) is
    separable iff the outer determinant is nonnegative.
    """
    inner = 1.0 - (fA - fB) ** 2 - (fA * fB) ** 2
    outer = 1.0 - (fA + fB) ** 2 - (fA * fB) ** 2
    return inner, outer


class DecompositionError(RuntimeError):
    """A representation missed the requested residual; carries the achieved one."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _rim_vectors(angles) -> np.ndarray:
    """Coefficient vectors (1, cos, sin, 1) of unit-radius, pole +1 extrema, shape (4, len)."""
    one = np.ones_like(angles)
    return np.stack([one, np.cos(angles), np.sin(angles), one])


def _product_columns(grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (I,X), (X,I), (X,X), (Y,Y) of rim-extrema products on a uniform grid.

    These (cos b, cos a, cos a cos b, sin a sin b) are even under (a, b) ->
    (-a, -b), so one column, the smaller flat index j*G + k, stands for each
    mirror pair {(j, k), (-j, -k) mod G}.  Returns the rows and the columns' j, k.
    """
    j, k = np.divmod(np.arange(grid_size * grid_size), grid_size)
    keep = j * grid_size + k <= (-j % grid_size) * grid_size + (-k % grid_size)
    _, cos_a, sin_a, _ = _rim_vectors(j[keep] * (TWO_PI / grid_size))
    _, cos_b, sin_b, _ = _rim_vectors(k[keep] * (TWO_PI / grid_size))
    return np.stack([cos_b, cos_a, cos_a * cos_b, sin_a * sin_b]), j[keep], k[keep]


def lp_feasibility(
    fA: float, fB: float, grid_size: int = 64, tol: float = 1e-6
) -> tuple[bool, float, list[tuple[float, float, float]]]:
    """Best L-infinity residual mixture reproducing the CZ output at ratios fA, fB.

    Minimizes the max-norm deviation between a convex combination of
    rim-extrema products (angles on a uniform grid, poles +1) and the target
    Pauli matrix.  Of the 16 coefficients, (I,I), (I,Z), (Z,I) and (Z,Z) are
    1 under sum(p) = 1, (Z,X) and (X,Z) repeat (I,X) and (X,I), and the six
    with one sine are odd under (a, b) -> (-a, -b) with target 0.  Averaging a
    mixture with its mirror image zeroes those and keeps the rest, so the LP
    over the 4 rows of _product_columns has the same optimum, and a pair
    weight p gives branches (p/2, a, b) and (p/2, -a, -b), or one branch for a
    self-mirror pair.  Returns (residual <= tol, residual, branches).
    """
    from scipy.optimize import linprog

    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    rows, j, k = _product_columns(grid_size)
    target = cz_pauli_output(fA, fB)[[0, 1, 1, 2], [1, 0, 1, 2]]
    n = rows.shape[1]
    # variables: p_0 .. p_{n-1}, t; minimize t
    c = np.zeros(n + 1)
    c[-1] = 1.0
    # |A p - target| <= t componentwise
    a_ub = np.block([[rows, -np.ones((4, 1))], [-rows, -np.ones((4, 1))]])
    b_ub = np.concatenate([target, -target])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
    if not res.success:
        return False, math.inf, []
    residual = float(res.x[-1])
    step = TWO_PI / grid_size
    branches = []
    for idx in np.nonzero(res.x[:n] > 1e-12)[0]:
        pair = sorted({(j[idx], k[idx]), (-j[idx] % grid_size, -k[idx] % grid_size)})
        branches += [(res.x[idx] / len(pair), a * step, b * step) for a, b in pair]
    total = sum(b[0] for b in branches)
    branches = [(float(w / total), float(a), float(b)) for w, a, b in branches]
    return residual <= tol, residual, branches


@dataclass(frozen=True)
class StochasticRep:
    """CZ on rim extrema as radius growth plus a sampled Z-rotation pair.

    branches: list of (probability, dthetaA, dthetaB); the offsets are the
    output angles relative to each input's own angle (for pole +1 inputs).
    residual records its acceptance: the mixture_residual of its branches.
    """

    growth: float
    branches: tuple[tuple[float, float, float], ...]
    residual: float

    def __post_init__(self):
        if self.growth <= 1.0:
            raise ValueError("growth must exceed 1")
        total = sum(b[0] for b in self.branches)
        if abs(total - 1.0) > 1e-9 or any(b[0] < 0.0 for b in self.branches):
            raise ValueError("branch weights must be a probability vector")


def build_decomposition(f: float) -> StochasticRep:
    """The StochasticRep at growth 1/f for inputs at radius ratio f = r/R per qubit.

    Five branches (weight, dthetaA, dthetaB): (w/2, t, t), (w/2, -t, -t),
    (u/2, 0, pi), (u/2, pi, 0) and (v, 0, 0), with

        cos t = (f^2 + 2f - 1) / (1 - f)^2,   w = (1 - f)^4 / (4 (1 - 2f)),
        v = (1 - 4f^2 - f^4) / (4 (1 - 2f)),   u = 1 - w - v;

    t is computed as 2 atan2(sqrt(1 - 2f), f), the same angle, with no acos
    of a rounded cosine.  The mirror pairs zero the six Pauli coefficients
    odd under (a, b) -> (-a, -b), and the weights meet the four even ones:
    E cos a = E cos b = f, E cos a cos b = 0 and E sin a sin b = f^2.  For
    f < 1/2, v >= 0 exactly when f^4 + 4f^2 <= 1, which is
    separability_condition(f, f, 1, 1), so the form covers the whole
    separable range: at f = 1/LAMBDA, v = 0, w = (sqrt(5) - 1)/2 and
    u = (3 - sqrt(5))/2, and at f = 0, t = pi, w = v = 1/4 and u = 1/2.
    Raises DecompositionError where the condition fails (with residual inf),
    or where the branches' mixture_residual exceeds REP_TOL.
    """
    if not 0.0 <= f < 1.0:
        raise ValueError(f"f must lie in [0, 1), got {f!r}")
    if not separability_condition(f, f, 1.0, 1.0):
        raise DecompositionError(
            f"no decomposition at f={f}: f^4 + 4f^2 = {f**4 + 4 * f * f!r} > 1",
            math.inf,
        )
    t = 2.0 * math.atan2(math.sqrt(1.0 - 2.0 * f), f)
    w = (1.0 - f) ** 4 / (4.0 * (1.0 - 2.0 * f))
    # rounding leaves v a few ulps below 0 at the critical ratio
    v = max(0.0, (1.0 - 4.0 * f * f - f**4) / (4.0 * (1.0 - 2.0 * f)))
    u = 1.0 - w - v
    branches = (
        (w / 2.0, t, t), (w / 2.0, -t, -t),
        (u / 2.0, 0.0, math.pi), (u / 2.0, math.pi, 0.0),
        (v, 0.0, 0.0),
    )
    residual = mixture_residual(f, branches)
    if not residual <= REP_TOL:
        raise DecompositionError(
            f"no decomposition at f={f}: residual {residual:.3e} > {REP_TOL:.1e}", residual
        )
    return StochasticRep(math.inf if f == 0.0 else 1.0 / f, branches, residual)


def mixture_residual(f: float, branches) -> float:
    """Max-norm gap between a branch mixture and the CZ output at ratios (f, f).

    The quantity lp_feasibility minimizes: branches are (weight, angleA,
    angleB) of unit-radius, pole +1 rim-extrema products.
    """
    w, a, b = np.array(branches, dtype=float).T
    mixture = (_rim_vectors(a) * w) @ _rim_vectors(b).T
    return float(np.max(np.abs(mixture - cz_pauli_output(f, f))))


def apply_branch(
    eA: CylinderExtremum,
    eB: CylinderExtremum,
    growth: float,
    da: float,
    db: float,
) -> tuple[CylinderExtremum, CylinderExtremum]:
    """Deterministic single-branch CZ update (rotation offsets da, db given).

    Pole -1 inputs are rewritten as X-conjugated pole +1 inputs; the X is
    pushed through the CZ as an X on that qubit's own output and a Z on the
    partner's output.  In Bloch terms: Z adds pi to the angle, X negates the
    angle and flips the pole.  Output radii grow by the growth factor.
    """
    flipA = eA.pole < 0
    flipB = eB.pole < 0

    tA = (-eA.theta if flipA else eA.theta) + da
    tB = (-eB.theta if flipB else eB.theta) + db
    if flipB:
        tA += math.pi
    if flipA:
        tB += math.pi
    if flipA:
        tA = -tA
    if flipB:
        tB = -tB

    rA = 0.0 if eA.r == 0.0 else eA.r * growth
    rB = 0.0 if eB.r == 0.0 else eB.r * growth
    outA = CylinderExtremum(rA, canonical_angle(tA), -1 if flipA else +1)
    outB = CylinderExtremum(rB, canonical_angle(tB), -1 if flipB else +1)
    return outA, outB


def extremum_coeffs(e: CylinderExtremum) -> np.ndarray:
    """Pauli coefficient vector [1, r cos(theta), r sin(theta), pole]."""
    return np.array(
        [1.0, e.r * math.cos(e.theta), e.r * math.sin(e.theta), float(e.pole)]
    )


def reconstructed_output(
    eA: CylinderExtremum, eB: CylinderExtremum, rep: StochasticRep
) -> np.ndarray:
    """Branch-weighted Pauli coefficient matrix of the stochastic CZ output."""
    out = np.zeros((4, 4))
    for p, da, db in rep.branches:
        oA, oB = apply_branch(eA, eB, rep.growth, da, db)
        out += p * np.outer(extremum_coeffs(oA), extremum_coeffs(oB))
    return out
