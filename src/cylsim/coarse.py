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
- the coefficient tensor multiplies all factors out into 3^n code signs,
  one site at a time, and takes them in integers to the per-site basis
  (1, Re a_i, Im a_i).  Grid minima contract it along a walk over the
  prefixes of the scanned head strings, then with every grid point of a
  chunk at once: one matrix product per pair of tail sites.

Multilinearity also yields certified lower bounds: each disc
|a_i| <= rho_i/2 sits inside the convex hull of G polygon vertices at radius
rho_i / (2 cos(pi/G)), and a multilinear function on a product of polytopes
attains its minimum at a vertex product, so an exact minimum over the
inflated angle grid bounds the continuous minimum from below.  The scan
computes that minimum in floating point, so a certificate asks it to be at
least rounding_bound, the scan's forward error, not merely nonnegative.

Symmetry shrinks that grid.  Codes 1 and 2 enter _SITE and _EDGE
symmetrically, so the value is unchanged when every a_i is conjugated, on
any graph: every coefficient-tensor entry with an odd number of Im codes is
zero, and the value at angles -theta equals the value at theta.  A block
automorphism (a reflection of the rectangle, or a symmetry of the square)
maps edges to edges and keeps the radii, so it fixes the coefficient tensor,
and the value is unchanged when it permutes the angles.  A certification
scan therefore visits one grid point per orbit of the automorphisms and the
mirror: a group of order 4 for a line, 8 for a rectangle and 16 for a
square, or the mirror's alone where that group's head would hold too many
grid points (_orbit_head).  Every value of the scan lies within rounding_bound
of the exact value at its grid point, whichever group it uses, so its
minimum equals the full grid's up to that bound, not bit for bit.  Bit for
bit holds for the frontier contraction, and so for every upper probe, which
does not depend on the scan.
"""

from __future__ import annotations

import itertools
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

    def automorphisms(self) -> list[tuple[int, ...]]:
        """Site permutations p that map the block onto itself, site s to p[s]:
        the reflections of the rectangle, and for a square also its rotations
        and diagonal reflections.  Each keeps the edges, the ext counts and so
        the radii in both modes."""
        H, W = self.height, self.width
        perms = set()
        for flip_i, flip_j, swap in itertools.product((0, 1), (0, 1), (0, 1) if H == W else (0,)):
            image = []
            for i in range(H):
                for j in range(W):
                    i2, j2 = (H - 1 - i if flip_i else i), (W - 1 - j if flip_j else j)
                    image.append(self.index(j2, i2) if swap else self.index(i2, j2))
            perms.add(tuple(image))
        return sorted(perms)


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
        start = np.zeros(3**self.axes)
        start[0] = 1.0
        n = len(order)
        self.open_ = [self._open(start, 0)] + [None] * (n - 1)
        self.right = [None] * n + [np.ones(3**self.axes)]
        self.open_ok = 0  # open_[p] is valid for p <= open_ok
        self.right_ok = n  # right[p] is valid for p >= right_ok

    def _view(self, F: np.ndarray, p: int) -> np.ndarray:
        """Flat frontier F as (L, 3, R), the code of the p-th site's short-side
        position in the middle."""
        return F.reshape(3 ** (p % self.axes), 3, -1)

    @staticmethod
    def _edges(t: np.ndarray) -> np.ndarray:
        """_EDGE applied to the middle axis of t, of shape (L, 3, R).  For
        R = 1 one product of L rows replaces L products of one column; both
        sum each entry's three terms in order, so the bits agree."""
        if t.shape[2] == 1:
            return (t.reshape(-1, 3) @ _EDGE).reshape(t.shape)  # _EDGE is symmetric
        return np.matmul(_EDGE, t)

    def _open(self, F: np.ndarray, p: int) -> np.ndarray:
        """Absorb the edges of the p-th site into frontier F, leaving its code open."""
        # _EDGE is symmetric: this sums out the code of the previous line's site
        t = self._edges(self._view(F, p))
        if p % self.axes:  # the edge to the site before, whose code leads the middle
            t = t.reshape(-1, 3, 3, t.shape[-1]) * _EDGE[:, :, None]
        return t.reshape(-1)

    def _close(self, R: np.ndarray, p: int) -> np.ndarray:
        """Contract the p-th site, its weight and its edges into right environment R."""
        t = self._view(R, p) * self.w[p][:, None]
        if p % self.axes:
            t = t.reshape(-1, 3, 3, t.shape[-1]) * _EDGE[:, :, None]
        return self._edges(self._view(t.reshape(-1), p)).reshape(-1)

    def _raw(self, p: int) -> np.ndarray:
        """Unweighted kernel of the p-th site: value = _raw(p) @ w[p]."""
        while self.open_ok < p:
            q = self.open_ok
            F = self._view(self.open_[q], q) * self.w[q][:, None]
            self.open_[q + 1] = self._open(F.reshape(-1), q + 1)
            self.open_ok += 1
        while self.right_ok > p + 1:
            self.right_ok -= 1
            q = self.right_ok
            self.right[q] = self._close(self.right[q + 1], q)
        # sum the codes after the next one first, then the rest in order: the
        # recorded probe values depend on this order in their last bits
        rest = min(3, 3 ** (self.axes - 1 - p % self.axes))
        t = (self.open_[p] * self.right[p + 1]).reshape(3 ** (p % self.axes), 3, rest, -1)
        return t.sum(axis=3).transpose(0, 2, 1).reshape(-1, 3).sum(axis=0)

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


def _code_tensor(b: BlockSpec, order=None) -> np.ndarray:
    """Block factors multiplied out over the codes (1, a, conj(a)) per site,
    in units of 2^-n.

    Shape (3,)*n, axis p for site order[p] (default: site order); the block
    value is 2^-n sum_v C_v prod_i x_i(v_i) with x_i = (1, a_i, conj(a_i)).
    Every entry is +-1, as int8.
    """
    pos = np.argsort(order) if order is not None else np.arange(b.n)
    site, edge = (2 * _SITE).astype(np.int8), _EDGE.astype(np.int8)
    # per axis, its site factor times the edges to earlier axes; the tensor
    # then grows by one axis at a time
    factors = [_along(site, p + 1, p) for p in range(b.n)]
    for u, v in b.edges():
        pu, pv = sorted((pos[u], pos[v]))
        factors[pv] = factors[pv] * _along(edge, pv + 1, pu, pv)  # _EDGE is symmetric
    return reduce(lambda C, f: C[..., None] * f, factors, np.ones((), np.int8))


def coeff_tensor(b: BlockSpec, order=None) -> np.ndarray:
    """Real coefficient tensor D of shape (3,)*n, axis p for site order[p]
    (default: site order).

    The block value is sum_u D_u prod_i y_i(u_i) with y_i = (1, Re a_i,
    Im a_i).  Each site's monomials are 1, a = Re a + i Im a and conj(a) =
    Re a - i Im a, so per axis the codes (c0, c1, c2) map to (c0, c1 + c2,
    i (c1 - c2)): integer sums of the +-1 code entries, times i^m for m Im
    codes.  D is real because the value is real for all real (Re a_i,
    Im a_i): the integer sums of odd m vanish, so D is even under
    conjugation, and i^m is (-1)^(m/2) for even m.  Every entry is an
    integer times 2^-n, computed exactly.
    """
    n = b.n
    T = _code_tensor(b, order).astype(np.min_scalar_type(-(2 ** (n + 1))))  # holds +-2^n
    for i in range(n):
        x = T.reshape(3**i, 3, -1)
        im = x[:, 1] - x[:, 2]
        x[:, 1] += x[:, 2]
        x[:, 2] = im
    ims = reduce(np.add, [_along(np.array([0, 0, 1], np.int8), n, i) for i in reversed(range(n))])
    T[ims % 4 == 2] *= -1
    D = T.astype(np.float64)
    D *= 2.0**-n
    return D


def _grid_rows(radii: np.ndarray, grid: int) -> list[np.ndarray]:
    """Per site, the rows (1, Re a, Im a) of a = (rho / 2) exp(-i theta) at
    the grid angles theta = 2 pi j / grid.  Rows j <= grid / 2 come from their
    angles, with sin(pi) taken as 0; row -j mod grid is row j with Im a
    negated, so mirror images are exact."""
    angles = np.arange(grid // 2 + 1) * (TWO_PI / grid)
    cos, sin = np.cos(angles), np.sin(angles)
    if grid % 2 == 0:
        sin[-1] = 0.0  # the angle pi is its own mirror image
    mirrored = slice((grid - 1) // 2, 0, -1)  # the rows j with 0 < j < grid - j
    cos, sin = np.concatenate([cos, cos[mirrored]]), np.concatenate([sin, -sin[mirrored]])
    return [np.stack([np.ones(grid), (rho / 2.0) * cos, -(rho / 2.0) * sin], axis=1) for rho in radii]


def _leaders(grid: int, perms) -> np.ndarray:
    """Flat indices, ascending, of the digit strings in range(grid)^k that are
    the least in their orbit under the mirror j -> -j mod grid and the
    permutations perms of the k positions, a group holding the identity."""
    k = len(perms[0])
    index = np.arange(grid**k).reshape((grid,) * k)
    least = np.minimum(index, index[np.ix_(*[-np.arange(grid) % grid] * k)])
    least = reduce(np.minimum, [least.transpose(p) for p in perms])
    return np.flatnonzero(least == index)


def _orbit_head(n: int, perms, grid: int) -> tuple[list[int], tuple[int, np.ndarray], int]:
    """Scan order, head and symmetry-group order of the orbit scan of the
    grid^n points of n sites under the site permutations perms, a group
    holding the identity, and the mirror.

    The head is the first few orbits of sites under perms, by least site,
    until the grid points of the other sites fit a chunk: the four corners
    of 2x3, 2x4, 3x3 and 3x4 at their certification grids.  The scan order
    puts the head first, then the other sites in order.  A head of more
    than _CHUNK digit strings (2x2 at grid 32) would cost more to sort into
    orbits than its scan saves, so the scan then takes the identity alone:
    single-site orbits in site order and the mirror's group of order 2.
    """
    for group in (perms, [tuple(range(n))]):
        orbits = sorted({tuple(sorted({p[s] for p in group})) for s in range(n)})
        head = []
        for orbit in orbits:
            if head and grid ** (n - len(head)) <= _CHUNK:
                break
            head += orbit
        if grid ** len(head) <= _CHUNK:
            break
    order = head + [s for s in range(n) if s not in head]
    pos = np.argsort(order)
    on_head = [tuple(pos[p[s]] for s in head) for p in group]
    return order, (len(head), _leaders(grid, on_head)), 2 * len(group)


def _grid_chunks(D: np.ndarray, radii: np.ndarray, grid: int, head):
    """Yield the minimum of the block value per chunk of a uniform per-qubit
    angle grid, visiting one grid point per orbit of a symmetry group.

    Matrix products with the rows (1, Re a, Im a) of each site's grid points
    contract the coefficient tensor D: the leading k sites first, giving one
    head row per grid point of those sites, then the rest in chunks of head
    rows, each chunk small enough (_CHUNK values) to stay in cache.  head =
    (k, leaders), from _orbit_head, names the head rows scanned, ascending.

    Head: one recursive walk over the prefixes of the leader strings.  Once
    the head rows under a prefix fit a chunk, one stacked product per
    remaining head site forms them all, and one fancy index picks the
    leaders'.  Above that level the walk forms only the child row
    Y[i][d] @ row of each digit d that leads to leaders, so it holds one row
    per level, and a scan that stops at chunk 0 skips the rest.

    Tail: the rows of two tail sites, np.kron(Y[i-1], Y[i]) of shape
    (grid^2, 9), are built once per scan, the last pair first; a lone first
    tail site keeps its (grid, 3) rows.  Each is one 2-D product over every
    head row of the chunk, P @ t.reshape(-1, 9).T, which moves the pair's
    grid indices to the front.  The values of a chunk come out in another
    order than their grid points, but only the chunk minimum is used.

    The scan needs D even under conjugation, as every coeff_tensor is: its
    entries with an odd number of Im codes are zero.  Then the value at grid
    point (-j_1, ..., -j_n) mod grid equals the value at (j_1, ..., j_n) in
    exact arithmetic, since _grid_rows builds row -j as row j with Im a
    negated.  With the mirror alone (_orbit_head's identity group) a head
    row is scanned only when its digit string is lexicographically no larger
    than its mirror's: (grid^k + 2^k)/2 of the grid^k head rows for even
    grid, (grid^k + 1)/2 for odd, in flat index order, with the all-zero
    point still in chunk 0.

    A block automorphism sigma (_orbit_head) fixes D, with its axes in any
    scan order, and the radii; so the value at grid point j equals the value
    at j with its digits permuted by sigma, in exact arithmetic.  When the
    head sites are a union of site orbits, every grid point has an image
    whose head string is the least of its orbit under the automorphisms and
    the mirror, and scanning those leaders with every tail reaches every
    value.

    Every value, and so every chunk minimum and the scan's minimum, lies
    within rounding_bound(D, radii) of the exact one at the same grid rows.
    The chunk boundaries and the BLAS kernels fix the order of the
    arithmetic, so they set the last bits; a mirror image need not match
    its grid point bit for bit.
    """
    n = D.ndim
    Y = _grid_rows(radii, grid)
    k, leaders = head
    tail = [np.kron(Y[i - 1], Y[i]) for i in range(n - 1, k, -2)]
    if (n - k) % 2:
        tail.append(Y[k])

    def head_rows(row, i, ids):
        """Head rows of the leaders under one prefix of length i, whose row is
        row; ids are their flat indices past the prefix, ascending."""
        if i == k or grid ** (k - i) * 3 ** (n - k) <= _CHUNK:  # its rows fit a chunk
            for y in Y[i:k]:
                row = np.matmul(y, row.reshape(-1, 3, row.shape[-1] // 3))
            yield row.reshape(grid ** (k - i), -1)[ids]
            return
        digit, ids = np.divmod(ids, grid ** (k - i - 1))
        for d in np.flatnonzero(np.bincount(digit)):
            yield from head_rows(Y[i][d] @ row.reshape(3, -1), i + 1, ids[digit == d])

    for t in _rechunk(head_rows(D.reshape(1, -1), 0, leaders), max(1, _CHUNK // grid ** (n - k))):
        for P in tail:
            # the codes of P's sites trail every row; their grid indices lead
            t = P @ t.reshape(-1, P.shape[1]).T
        yield float(t.min())


def _rechunk(blocks, rows: int):
    """Regroup a stream of arrays into arrays of `rows` rows, the last one
    possibly shorter."""
    held, size = [], 0
    for block in blocks:
        while len(block):
            held.append(block[: rows - size])
            size += len(held[-1])
            block = block[len(held[-1]) :]
            if size == rows:
                yield np.concatenate(held)
                held, size = [], 0
    if held:
        yield np.concatenate(held)


def _grid_sign(D: np.ndarray, radii: np.ndarray, grid: int, head) -> float:
    """A value with the sign of the grid minimum: the minimum itself when it
    is nonnegative, else the minimum of the first chunk that goes negative,
    where the scan stops."""
    low = math.inf
    for v in _grid_chunks(D, radii, grid, head):
        low = min(low, v)
        if v < 0.0:
            break
    return low


def rounding_bound(D: np.ndarray, radii) -> float:
    """How far a value of _grid_chunks, and so a chunk or grid minimum, can
    lie from the exact value at the same grid rows: gamma_{5n} sum_u |D_u|
    prod_i w_i(u_i), with w_i = (1, rho_i/2, rho_i/2) bounding site i's grid
    rows and gamma_m = m u / (1 - m u), u = 2^-53.

    Each term D_u prod_i y_i(u_i) of a value meets at most 5 roundings per
    site: 3 at a head site (one product and two sums in its row of 3), 10 at
    a tail pair (its np.kron entry, then one product and eight sums in its
    row of 9) and 3 at a lone tail site.  Any summation order keeps these
    counts.
    """
    t = D.reshape(-1)
    for rho in radii:  # contract |D| a leading axis at a time, without a full copy
        x = t.reshape(3, -1)
        t = np.abs(x[1])
        t += np.abs(x[2])
        t *= rho / 2.0
        t += np.abs(x[0])
    nu = 5 * D.ndim * 2.0**-53
    return nu / (1.0 - nu) * float(t[0])


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
    radius, whether it held, and the value that decided it.  An upper probe's
    value is where the zero-start descent ended, and it holds when that is
    nonnegative.  A lower probe's value is the certification-grid minimum, or
    the first negative chunk's, and it holds when that is at least
    rounding_bound at the probe's inflated radii."""

    bound: str
    r: float
    holds: bool
    value: float


@dataclass(frozen=True)
class SEstimate:
    """Bracket [lower, upper] for a block threshold.

    lower is certified: at radii inflated by cert_inflation =
    1/cos(pi/cert_grid), the scan's grid minimum was at least its rounding
    bound, so the exact grid minimum was nonnegative, which bounds the
    continuous minimum from below.  upper is witnessed: witness, the
    assignment where the descent of the failing probe at upper ended, has a
    negative value there (unless capped: the search cap was reached).
    theta_grid is the requested certification grid, cert_grid the one used.
    A full certification scan visits scan_points of its cert_grid^n points,
    one per orbit of a symmetry group of order scan_group_order (_orbit_head).
    cert_rounding_bound is rounding_bound at the inflated radii of lower: how
    far the scan's grid minimum there can lie from the exact one, and so the
    slack a lower probe there must clear.
    probes lists every probe of both bisections in order.
    """

    lower: float
    upper: float
    theta_grid: int
    cert_grid: int
    cert_inflation: float
    scan_group_order: int
    scan_points: int
    cert_rounding_bound: float
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
    scans the minimum over G angles per site (theta_grid, halved to fit
    _CERT_BUDGET, to no fewer than 4) at radii inflated by 1/cos(pi/G): a
    minimum of at least rounding_bound, the scan's forward error, certifies
    the continuous minimum.  The probe stops at the first chunk of grid
    points that goes negative, and computes the bound only when none does.
    The scan visits one grid point per orbit of the block's symmetry group;
    its head and leader list are set up once, for every lower probe.

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
    cert_grid = _grid_size(b.n, theta_grid)
    order, head, group_order = _orbit_head(b.n, b.automorphisms(), cert_grid)
    D = coeff_tensor(b, order)
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
        radii = b.radii(r)[order] * inflate
        v = _grid_sign(D, radii, cert_grid, head)
        holds = v >= 0.0 and v >= rounding_bound(D, radii)
        probes.append(Probe("lower", r, holds, v))
        return holds

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
        lower=lower,
        upper=upper,
        theta_grid=theta_grid,
        cert_grid=cert_grid,
        cert_inflation=inflate,
        scan_group_order=group_order,
        scan_points=len(head[1]) * cert_grid ** (b.n - head[0]),
        cert_rounding_bound=rounding_bound(D, b.radii(lower)[order] * inflate),
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
