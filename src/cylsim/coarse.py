"""Coarse-graining thresholds for rectangular blocks of the square lattice.

A block is an H x W patch whose qubits get rim-extremum inputs with pole +1
and angle theta_i, internal nearest-neighbor CZs, and the fixed product
projection onto (I - X)/2 per qubit.  The quantity of interest is

    s(B)        max r such that the block value stays nonnegative for every
                choice of input angles (plain mode, radius r everywhere)
    s_lambda(B) same, but boundary radii are grown by LAMBDA per external
                edge of the lattice embedding: radius_i = r * LAMBDA^e_i

The block value is defined once, by factors.  Each site carries a code for
one of the monomials (1, a_i, conj(a_i)) of its transverse component
a_i = (rho_i / 2) exp(-i theta_i), weighted by the site factor _SITE; each CZ
edge multiplies by the sign _EDGE of its two codes.  The value is the sum
over all code strings of the product of these factors, evaluated in two
contraction orders:

- the frontier contraction absorbs the sites one by one along the long side,
  holding 3^H codes for the short side H.  It gives single values and, with
  left and right environments cached as in DMRG sweeps, the per-site kernel
  (the value as an affine function of one site's monomials) in
  O(3^(H+1)) per site.  The coordinate descent runs on these kernels.
- the coefficient tensor multiplies all factors out into 3^n real entries,
  by broadcasting, in the per-site basis (1, Re a_i, Im a_i).  Exact grid
  minima contract it with every grid point at once, one matrix product per
  site.

Multilinearity also yields certified lower bounds: each disc
|a_i| <= rho_i/2 sits inside the convex hull of G polygon vertices at radius
rho_i / (2 cos(pi/G)), and a multilinear function on a product of polytopes
attains its minimum at a vertex product, so an exact minimum over the
inflated angle grid bounds the continuous minimum from below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import oracle
from .circuits import ClusterCircuit, MeasurementRule
from .czdec import LAMBDA
from .geometry import TWO_PI, Z_BASIS, CylinderExtremum

PLAIN = "plain"
LAMBDA_GROWN = "lambda"

#: values per chunk of an exact grid minimum, few enough to stay in cache
_CHUNK = 1 << 16

#: point budget of the certification grid, which has at least 4 angles per site
_CERT_BUDGET = 1 << 24

#: sweeps after which a coordinate descent stops even if it still moves
_MAX_SWEEPS = 60

#: site factor per code (1, a, conj(a)): the projection (I - X)/2 weighs
#: operator entry (s, t) by (-1)^(s+t) / 2, and a sits at (0, 1), conj(a) at (1, 0)
_SITE = np.array([1.0, -1.0, -1.0]) / 2.0

#: CZ sign (-1)^(s_u s_v + t_u t_v) between the codes of neighboring sites
_EDGE = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])

#: monomials (1, a, conj(a)) in the real basis (1, Re a, Im a)
_TO_REAL = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0j], [0.0, 1.0, -1.0j]])


class BlockTooLarge(ValueError):
    """The certification grid of a block would exceed _CERT_BUDGET points."""


@dataclass(frozen=True)
class BlockSpec:
    """Rectangular block with external-edge counts from the lattice embedding."""

    height: int
    width: int
    mode: str = PLAIN

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.height * self.width < 2:
            raise ValueError("block must contain at least 2 qubits")
        if self.mode not in (PLAIN, LAMBDA_GROWN):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def n(self) -> int:
        return self.height * self.width

    def index(self, row: int, col: int) -> int:
        return row * self.width + col

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.height):
            for j in range(self.width):
                if j + 1 < self.width:
                    out.append((self.index(i, j), self.index(i, j + 1)))
                if i + 1 < self.height:
                    out.append((self.index(i, j), self.index(i + 1, j)))
        return out

    def ext_counts(self) -> np.ndarray:
        """External CZ count per qubit: 4 minus the internal degree."""
        deg = np.zeros(self.n, dtype=int)
        for u, v in self.edges():
            deg[u] += 1
            deg[v] += 1
        return 4 - deg

    def radii(self, r: float) -> np.ndarray:
        if r < 0.0:
            raise ValueError("r must be nonnegative")
        if self.mode == PLAIN:
            return np.full(self.n, float(r))
        return r * LAMBDA ** self.ext_counts().astype(float)


def two_block_formula(rp: float, thetaA: float, thetaB: float) -> float:
    """Closed form for the 1x2 block, up to the positive factor 1/4."""
    return (
        1.0
        - rp * math.cos(thetaA)
        - rp * math.cos(thetaB)
        + rp * rp * math.sin(thetaA) * math.sin(thetaB)
    )


def _transverse(radii, thetas):
    """Transverse components a = (rho / 2) exp(-i theta)."""
    return (np.asarray(radii, dtype=float) / 2.0) * np.exp(-1j * np.asarray(thetas, dtype=float))


def _along(factor: np.ndarray, ndim: int, *axes: int) -> np.ndarray:
    """View of a per-code factor that broadcasts along the given axes (ascending)."""
    shape = [1] * ndim
    for ax in axes:
        shape[ax] = 3
    return factor.reshape(shape)


def _weight(a) -> np.ndarray:
    """Site factor times the monomials (1, a, conj(a)) of one site."""
    return _SITE * np.array([1.0, a, np.conj(a)])


class _Frontier:
    """Frontier contraction of one block, with cached environments.

    Sites are absorbed along the long side, one line of the short side at a
    time, so the frontier holds one code per short-side position: 3^H
    states for short side H, with code 0 (a factor 1 on every edge) standing in for missing
    neighbors before the first line.  open_[p] is the frontier with the
    code of the p-th absorbed site open and its weight not yet applied; it
    depends on the sites before p.  right[p] is sites p.. contracted against
    a frontier; it depends on the sites from p on.  Changing one site
    invalidates only the environments that contain it, and they are rebuilt
    when next needed, so a sweep in absorption order costs O(n 3^(H+1)).
    """

    def __init__(self, b: BlockSpec, a):
        H, W = b.height, b.width
        if W <= H:
            self.axes = W
            order = [b.index(i, j) for i in range(H) for j in range(W)]
        else:
            self.axes = H
            order = [b.index(i, j) for j in range(W) for i in range(H)]
        if self.axes > 8:
            raise ValueError("frontier contraction capped at short side 8")
        self.order = order
        self.pos = {site: p for p, site in enumerate(order)}
        self.w = np.array([_weight(x) for x in np.asarray(a)[order]])
        start = np.zeros((3,) * self.axes)
        start[(0,) * self.axes] = 1.0
        n = len(order)
        self.open_ = [self._open(start, 0)] + [None] * (n - 1)
        self.right = [None] * n + [np.ones((3,) * self.axes)]
        self.open_ok = 0  # open_[p] is valid for p <= open_ok
        self.right_ok = n  # right[p] is valid for p >= right_ok

    def _open(self, F: np.ndarray, p: int) -> np.ndarray:
        """Absorb the edges of the p-th site into frontier F, leaving its code open."""
        r = p % self.axes
        t = np.tensordot(F, _EDGE, axes=([r], [0]))  # the open code is the last axis
        if r > 0:
            t = t * _along(_EDGE, self.axes, r - 1, self.axes - 1)
        return np.moveaxis(t, -1, r)

    def _close(self, R: np.ndarray, p: int) -> np.ndarray:
        """Contract the p-th site, its weight and its edges into right environment R."""
        r = p % self.axes
        t = R * _along(self.w[p], self.axes, r)
        if r > 0:
            t = t * _along(_EDGE, self.axes, r - 1, r)
        return np.moveaxis(np.tensordot(_EDGE, t, axes=([1], [r])), 0, r)

    def _raw(self, p: int) -> np.ndarray:
        """Unweighted kernel of the p-th site: value = _raw(p) @ w[p]."""
        while self.open_ok < p:
            q = self.open_ok
            F = self.open_[q] * _along(self.w[q], self.axes, q % self.axes)
            self.open_[q + 1] = self._open(F, q + 1)
            self.open_ok += 1
        while self.right_ok > p + 1:
            self.right_ok -= 1
            q = self.right_ok
            self.right[q] = self._close(self.right[q + 1], q)
        r = p % self.axes
        others = tuple(ax for ax in range(self.axes) if ax != r)
        return (self.open_[p] * self.right[p + 1]).sum(axis=others)

    def kernel(self, site: int) -> np.ndarray:
        """(k0, k1, k2) with value = k0 + k1 a + k2 conj(a) in the site's component a."""
        return _SITE * self._raw(self.pos[site])

    def set(self, site: int, a) -> None:
        """Replace the transverse component of one site."""
        p = self.pos[site]
        self.w[p] = _weight(a)
        self.open_ok = min(self.open_ok, p)
        self.right_ok = max(self.right_ok, p + 1)

    def value(self) -> float:
        """Block value at the current transverse components."""
        p = len(self.order) - 1
        return float(np.real(self._raw(p) @ self.w[p]))


def block_value(b: BlockSpec, radii: np.ndarray, thetas) -> float:
    """Exact block value for one assignment via the frontier contraction."""
    return _Frontier(b, _transverse(radii, thetas)).value()


def block_min_prob_dense(b: BlockSpec, r: float, thetas) -> float:
    """Dense-oracle evaluation of the block value (independent backend): the
    block as a circuit with pole +1 inputs at b.radii(r), its operator from
    oracle.dense_output, and every qubit projected onto (I - X)/2."""
    n = b.n
    c = ClusterCircuit(
        n_qubits=n,
        edges=tuple(b.edges()),
        inputs=tuple(CylinderExtremum(rho, t, +1) for rho, t in zip(b.radii(r), thetas)),
        plan=(MeasurementRule(Z_BASIS),) * n,
        order=tuple(range(n)),
    )
    minus = reduce(np.kron, [np.array([1.0, -1.0]) / math.sqrt(2.0)] * n)
    return float(np.real(minus @ oracle.dense_output(c) @ minus))


def _code_tensor(b: BlockSpec) -> np.ndarray:
    """Block factors multiplied out over the codes (1, a, conj(a)) per site.

    Shape (3,)*n; the block value is sum_v C_v prod_i x_i(v_i) with
    x_i = (1, a_i, conj(a_i)).  Every entry is +-2^-n, computed exactly.
    """
    C = reduce(np.multiply, [_along(_SITE, b.n, i) for i in range(b.n)])
    for u, v in b.edges():
        C = C * _along(_EDGE, b.n, u, v)
    return C


def coeff_tensor(b: BlockSpec) -> np.ndarray:
    """Real coefficient tensor D of shape (3,)*n.

    The block value is sum_u D_u prod_i y_i(u_i) with y_i = (1, Re a_i,
    Im a_i).  D is real because the value is real for all real (Re a_i,
    Im a_i); the basis change is exact in floating point.
    """
    t = _code_tensor(b).astype(complex)
    for _ in range(b.n):
        # contract the leading axis; the new axis goes last, so n steps restore the order
        t = np.tensordot(t, _TO_REAL, axes=([0], [0]))
    return np.ascontiguousarray(t.real)


def _grid_chunks(D: np.ndarray, radii: np.ndarray, grid: int):
    """Yield the minimum of the block value per chunk of a uniform per-qubit
    angle grid, in flat index order.

    Matrix products with the rows (1, Re a, Im a) of each site's grid points
    contract the coefficient tensor D: the leading k sites first, at every
    grid point at once, then the rest in chunks of head rows, last site
    first, each chunk small enough (_CHUNK values) to stay in cache.  The
    chunk boundaries fix the order of the arithmetic, so they set the last
    bits of each value.
    """
    n = D.ndim
    angles = np.arange(grid) * (TWO_PI / grid)
    Y = [
        np.stack([np.ones(grid), (rho / 2.0) * np.cos(angles), -(rho / 2.0) * np.sin(angles)], axis=1)
        for rho in radii
    ]
    k = 0
    while grid ** (n - k) > _CHUNK:
        k += 1
    heads = D.reshape(1, -1)
    for i in range(k):
        heads = np.matmul(Y[i], heads.reshape(len(heads), 3, -1)).reshape(len(heads) * grid, -1)
    tail = grid ** (n - k)
    rows = max(1, _CHUNK // tail)
    for s in range(0, len(heads), rows):
        t = heads[s : s + rows]
        for i in range(n - 1, k - 1, -1):
            # grid indices so far lead each row; site i's code is the last axis
            t = np.matmul(Y[i], t.reshape(len(t), -1, 3).transpose(0, 2, 1))
        yield float(t.min())


def _grid_sign(D: np.ndarray, radii: np.ndarray, grid: int) -> float:
    """A value with the sign of the grid minimum: the minimum itself when it
    is nonnegative, else the minimum of the first chunk that goes negative,
    where the scan stops."""
    low = math.inf
    for v in _grid_chunks(D, radii, grid):
        low = min(low, v)
        if v < 0.0:
            break
    return low


def _min_gain(n: int) -> float:
    """Least decrease for which a descent on n sites accepts a move: 1e-15,
    halved per site past 12, since block values shrink roughly like 2^-n."""
    return 1e-15 * 2.0 ** -max(0, n - 12)


def _coordinate_descent(b: BlockSpec, radii: np.ndarray, a0) -> tuple[float, np.ndarray]:
    """Greedy descent over the transverse components a_i, from a0.

    The value is affine in each a_i, Re(k0 + 2 k1 a_i) given the others, so
    the best a_i on its disc is -(rho_i / 2) conj(k1) / |k1|.  Codes 1 and 2
    enter _SITE and _EDGE symmetrically, so real components give real
    kernels, and the best a_i is then a sign flip: a real start stays real,
    and the frontier keeps its dtype, float64 or complex.  _min_gain(n) is
    the only acceptance rule: a move gains at most 2 rho_i |k1|, so it
    rejects negligible kernels; a fixed floor on |k1| would stall large blocks.
    """
    a = np.array(a0)
    chain = _Frontier(b, a)
    val = chain.value()
    gain = _min_gain(b.n)
    for _ in range(_MAX_SWEEPS):
        improved = False
        for i in range(b.n):
            k0, k1, _ = chain.kernel(i)
            cand = k0.real - radii[i] * abs(k1)
            if cand < val - gain:
                a[i] = -(radii[i] / 2.0) * (np.conj(k1) / abs(k1))
                chain.set(i, a[i])
                val = cand
                improved = True
        if not improved:
            break
    return float(val), a


def _angles(a) -> tuple[float, ...]:
    """Input angles of transverse components a = (rho / 2) exp(-i theta),
    in [0, 2 pi): exactly 0.0 or pi for real components."""
    return tuple(float(-t % TWO_PI) for t in np.angle(a))


class Probe(NamedTuple):
    """One bisection probe: the bound it served ("upper" or "lower"), its
    radius, whether the block value stayed nonnegative, and the value that
    decided it: where the zero-start descent ended for an upper probe; for a
    lower one the certification-grid minimum, or the first negative chunk's."""

    bound: str
    r: float
    holds: bool
    value: float


@dataclass(frozen=True)
class SEstimate:
    """Bracket [lower, upper] for a block threshold.

    lower is certified: the exact grid minimum at radii inflated by
    cert_inflation = 1/cos(pi/cert_grid) was nonnegative, which bounds the
    continuous minimum from below.  upper is witnessed: witness, the
    assignment where the descent of the failing probe at upper ended, has a
    negative value there (unless capped: the search cap was reached).
    theta_grid is the requested certification grid, cert_grid the one used.
    probes lists every probe of both bisections in order.
    """

    lower: float
    upper: float
    theta_grid: int
    cert_grid: int
    cert_inflation: float
    witness: tuple[float, ...] | None
    capped: bool = False
    probes: tuple[Probe, ...] = ()


def _grid_size(n: int, grid: int) -> int:
    """Halve grid until grid^n fits _CERT_BUDGET, to no fewer than 4 angles."""
    g = grid
    while g > 4 and g**n > _CERT_BUDGET:
        g = max(4, g // 2)
    return g


def _bisect(lo: float, hi: float, tol: float, holds) -> tuple[float, float]:
    """Shrink [lo, hi] to width tol, moving lo where holds(r) and hi where not."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: tol is below the resolution at this radius
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


R_SEARCH_CAP = 4.0


def s_estimate(
    b: BlockSpec, theta_grid: int = 32, bisect_tol: float = 5e-5
) -> SEstimate:
    """Bracket the threshold radius of a block by bisection.

    Each probe decides a sign by one search.  An upper probe descends from
    all-zero angles at the exact radii and fails when it ends negative; upper
    is always such a probe, and its assignment is the witness.  A lower probe
    takes the exact minimum over G angles per site (theta_grid, halved to fit
    _CERT_BUDGET, to no fewer than 4) at radii inflated by 1/cos(pi/G):
    nonnegativity there certifies the continuous minimum, and the probe
    stops at the first chunk of grid points that goes negative.

    Raises ValueError for a theta_grid that is not an integer >= 4 or a
    bisect_tol that is not finite and positive, and BlockTooLarge, before
    any work, when the certification grid of 4 angles per site exceeds
    _CERT_BUDGET points.
    """
    if not isinstance(theta_grid, numbers.Integral) or theta_grid < 4:
        raise ValueError(f"theta_grid must be an integer >= 4, got {theta_grid!r}")
    if not (math.isfinite(bisect_tol) and bisect_tol > 0.0):
        raise ValueError(f"bisect_tol must be finite and positive, got {bisect_tol!r}")
    # compare log2 of 4^n, so that huge blocks are refused without forming 4^n
    if 2 * b.n > math.log2(_CERT_BUDGET):
        raise BlockTooLarge(
            f"block {b.height}x{b.width} has {b.n} sites: its certification grid "
            f"of 4 angles per site needs 4^{b.n} points, over the budget of "
            f"2^{_CERT_BUDGET.bit_length() - 1}"
        )
    D = coeff_tensor(b)
    cert_grid = _grid_size(b.n, theta_grid)
    inflate = 1.0 / math.cos(math.pi / cert_grid)
    probes = []
    witnesses = {}  # assignment of each failing upper probe, by radius

    def nonnegative(r: float) -> bool:
        radii = b.radii(r)
        v, a = _coordinate_descent(b, radii, radii / 2.0)
        probes.append(Probe("upper", r, v >= 0.0, v))
        if v < 0.0:
            witnesses[r] = a
        return v >= 0.0

    def certified(r: float) -> bool:
        v = _grid_sign(D, b.radii(r) * inflate, cert_grid)
        probes.append(Probe("lower", r, v >= 0.0, v))
        return v >= 0.0

    # upper: smallest r with a concrete negative witness
    hi = 0.05
    while hi <= R_SEARCH_CAP and nonnegative(hi):
        hi *= 1.5
    capped = hi > R_SEARCH_CAP
    if capped:
        upper, witness = R_SEARCH_CAP, None
    else:
        _, upper = _bisect(hi / 1.5, hi, bisect_tol, nonnegative)
        witness = _angles(witnesses[upper])

    # lower: largest r whose inflated-grid minimum is certified nonnegative
    if certified(upper):
        lower = upper
    else:
        lower, _ = _bisect(0.0, upper, bisect_tol, certified)
    return SEstimate(
        lower=min(lower, upper),
        upper=upper,
        theta_grid=theta_grid,
        cert_grid=cert_grid,
        cert_inflation=inflate,
        witness=witness,
        capped=capped,
        probes=tuple(probes),
    )


def lemma4_checks(
    K: BlockSpec,
    L: BlockSpec,
    KL: BlockSpec,
    theta_grid: int = 16,
    bisect_tol: float = 1e-3,
) -> dict:
    """Monotonicity of the thresholds under joining two blocks.

    Checks, on computed brackets (A <= B accepted when lower_A <= upper_B):
      plain thresholds shrink:   s(KL) <= min(s(K), s(L))
      grown thresholds grow:     s_lambda(KL) >= min(s_lambda(K), s_lambda(L))
      plain dominates grown:     s(F) >= s_lambda(F) for each block F
    """
    def both(spec: BlockSpec) -> tuple[SEstimate, SEstimate]:
        p = s_estimate(BlockSpec(spec.height, spec.width, PLAIN), theta_grid, bisect_tol)
        g = s_estimate(BlockSpec(spec.height, spec.width, LAMBDA_GROWN), theta_grid, bisect_tol)
        return p, g

    (Kp, Kg), (Lp, Lg), (KLp, KLg) = both(K), both(L), both(KL)
    report = {
        "s_plain": {"K": Kp, "L": Lp, "KL": KLp},
        "s_lambda": {"K": Kg, "L": Lg, "KL": KLg},
        "join_shrinks_plain": KLp.lower <= min(Kp.upper, Lp.upper),
        "join_grows_lambda": KLg.upper >= min(Kg.lower, Lg.lower),
        "plain_dominates_lambda": all(
            p.upper >= g.lower for p, g in ((Kp, Kg), (Lp, Lg), (KLp, KLg))
        ),
    }
    report["all_ok"] = bool(
        report["join_shrinks_plain"]
        and report["join_grows_lambda"]
        and report["plain_dominates_lambda"]
    )
    return report


def conjecture_fast_path(
    b: BlockSpec, r: float, restarts: int = 8, seed: int = 0
) -> tuple[float, tuple[float, ...]]:
    """Heuristic minimum over inputs with no Y component (angles 0 or pi).

    The coordinate descent from the all-zero angles and from random {0, pi}
    patterns.  Their components are real, so every kernel is real and every
    move a sign flip, valued exactly: the descent never leaves {0, pi}.
    The restriction to real transverse components is a conjecture about
    where the optimum sits, so results are upper-bound material only.
    """
    radii = b.radii(r)
    rng = np.random.default_rng(seed)
    starts = [np.ones(b.n)] + [rng.choice([-1, 1], size=b.n) for _ in range(restarts)]
    descents = (_coordinate_descent(b, radii, s * (radii / 2.0)) for s in starts)
    v, a = min(descents, key=lambda t: t[0])  # ties go to the earliest start
    return v, _angles(a)


def find_negativity_witness(
    b: BlockSpec, r_values, restarts: int = 4, seed: int = 0
) -> tuple[float, tuple[float, ...]] | None:
    """Smallest r in r_values whose fast-path minimum goes negative."""
    for r in r_values:
        v, thetas = conjecture_fast_path(b, r, restarts=restarts, seed=seed)
        if v < 0.0:
            return float(r), thetas
    return None
