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
  holding 3^H codes for the short side H, one product with a per-site block
  per site.  It gives single values and, with left and right environments
  cached as in DMRG sweeps, the per-site kernel (the value as an affine
  function of one site's monomials) in O(3^(H+1)) per site.  The coordinate
  descent of the witness hunt runs on these kernels.
- the coefficient tensor is the value in the per-site basis
  (1, Re a_i, Im a_i).  Of its 3^n entries only 2^n are nonzero, one per
  vertex subset, each a signed power of two in closed form (coeff_tensor),
  and only those terms are formed.  Grid minima contract them along a walk
  over the prefixes of the scanned head strings, one head site at a time,
  then with every grid point of a chunk at once: one matrix product per
  pair of tail sites.  Their magnitudes give the rounding bound as a
  product over the sites.  At real components only the terms with no Im
  code survive, 278 of 4,096 on 3x4, and flipping the sign of a_i changes
  the value by -2 q_i, q_i the sum of the terms that contain i: the
  bisection's upper probes, which start at real components and stay there,
  run the same coordinate descent on these terms, and the lower probes read
  the all-zero grid point from them.

Multilinearity also yields certified lower bounds: each disc
|a_i| <= rho_i/2 sits inside the convex hull of G polygon vertices at radius
rho_i / (2 cos(pi/G)), and a multilinear function on a product of polytopes
attains its minimum at a vertex product, so an exact minimum over the
inflated angle grid bounds the continuous minimum from below.  The scan
computes that minimum in floating point, so a certificate asks it to be at
least rounding_bound, the scan's forward error, not merely nonnegative.

The same argument makes the exact grid minimum a nonincreasing function of
r.  Every radius scales with r in both modes, so each site's polygon at
r' < r is a shrunken copy inside its polygon at r; the block value is the
same multilinear function of the a_i at every r, so its minimum over the
larger product of polygons, attained at a vertex, is no larger.  A
certificate at lower therefore settles every smaller radius, and s_estimate
screens its lower probes at the all-zero grid point, which every scan holds,
and runs one full scan, at the final lower, to confirm them.

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
minimum equals the full grid's up to that bound, not bit for bit.  The
upper probes' real terms come in scan order too; the order sets only the
last bits of their values.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, reduce
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BlockSpec:
    """Rectangular block with external-edge counts from the lattice embedding.
    Its edges, external counts and radius growth are worked out once per
    block, on first use; the arrays are read-only."""

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

    @cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i in range(self.height):
            for j in range(self.width):
                if j + 1 < self.width:
                    out.append((self.index(i, j), self.index(i, j + 1)))
                if i + 1 < self.height:
                    out.append((self.index(i, j), self.index(i + 1, j)))
        return tuple(out)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @cached_property
    def _ext_counts(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for u, v in self._edges:
            deg[u] += 1
            deg[v] += 1
        return _read_only(4 - deg)

    def ext_counts(self) -> np.ndarray:
        """External CZ count per qubit: 4 minus the internal degree."""
        return self._ext_counts

    @cached_property
    def _growth(self) -> np.ndarray:
        """Radius per unit r: 1, or LAMBDA per external edge in lambda mode."""
        if self.mode == PLAIN:
            return _read_only(np.ones(self.n))
        return _read_only(LAMBDA ** self.ext_counts().astype(float))

    def radii(self, r: float) -> np.ndarray:
        if r < 0.0:
            raise ValueError("r must be nonnegative")
        return r * self._growth

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


def _weight(a) -> np.ndarray:
    """Site factor times the monomials (1, a, conj(a)) of transverse
    components a, along a new last axis."""
    a = np.asarray(a)
    return _SITE * np.stack([np.ones_like(a), a, np.conj(a)], axis=-1)


#: the two edges of a site on the codes of its frontier position pair: row
#: (b, o) holds the code b of the site before it in its line and the code o
#: of its neighbor in the previous line, column (b', c) the codes b and the
#: site's own code c, and the entry is [b = b'] _EDGE[o, c] _EDGE[b, c].  Its
#: leading 3x3, b = b' = 0, is _EDGE alone: the edges of a site that starts
#: a line, whose frontier position has no position before it
_PAIR = np.einsum("bd,oc,bc->bodc", np.eye(3), _EDGE, _EDGE).reshape(9, 9)

#: per size m of a site's view (9 for a position pair, 3 at a line start),
#: the kernel of the site from the codes of its view: entry ((x, y), c) is
#: _PAIR[x, y] _SITE[c] where y holds the site's own code c, and 0 elsewhere
_KERNEL = {m: (_PAIR[:m, :m, None] * (np.arange(m)[:, None] % 3 == np.arange(3)) * _SITE).reshape(-1, 3)
           for m in (3, 9)}


def _absorption(b: BlockSpec) -> tuple[int, list[int]]:
    """Short side of the block and the order in which the frontier
    contraction absorbs its sites: along the long side, one line of the
    short side at a time."""
    H, W = b.height, b.width
    if W <= H:
        return W, [b.index(i, j) for i in range(H) for j in range(W)]
    return H, [b.index(i, j) for j in range(W) for i in range(H)]


class _Frontier:
    """Frontier contraction of one block, with cached environments.

    Sites are absorbed along the long side, one line of the short side at a
    time, so the frontier holds one code per short-side position: 3^H
    states for short side H, with code 0 (a factor 1 on every edge) standing
    in for missing neighbors before the first line.  Absorbing the p-th site
    is one product (_step) with its block, which folds the site's weight
    (_SITE times its monomials (1, a, conj(a))) and both its edges: _PAIR
    times the weight of the site's own code, on the codes of its position
    and the position before it, or the leading 3x3 of that at a line start,
    on its position alone.  The blocks of all sites are built by one
    broadcast, and set rebuilds one.

    left[p] is the frontier before the p-th site, which depends on the sites
    before p; right[p] is sites p.. contracted against a frontier, which
    depends on the sites from p on; the value is left[p] @ right[p] for
    every p, and left[0] has all codes 0.  The kernel of the p-th site is
    one product, of left[p] and right[p + 1] summed over every code but
    those of the site's positions, and one reduction of that against
    _KERNEL.  Changing one site invalidates only the environments that
    contain it, and they are rebuilt when next needed, so a sweep in
    absorption order costs about 2n steps of O(3^(H+1)).
    """

    def __init__(self, b: BlockSpec, a):
        H, self.order = _absorption(b)
        if H > 8:
            raise ValueError("frontier contraction capped at short side 8")
        n = len(self.order)
        self.pos = {site: p for p, site in enumerate(self.order)}
        self.a = np.array(a)
        self.blocks = _PAIR * np.tile(_weight(self.a[self.order]), 3)[:, None, :]
        # each site's frontier as (L, m, R): its position pair (m = 9), or its
        # position alone at a line start (m = 3), in the middle
        self.views = [(3 ** (j - 1), 9, 3 ** (H - 1 - j)) if j else (1, 3, 3 ** (H - 1))
                      for j in (p % H for p in range(n))]
        start = np.zeros(3**H)
        start[0] = 1.0
        self.left = [start] + [None] * n
        self.right = [None] * n + [np.ones(3**H)]
        self.left_ok = 0  # left[p] is valid for p <= left_ok
        self.right_ok = n  # right[p] is valid for p >= right_ok

    def _step(self, F: np.ndarray, p: int, T: np.ndarray) -> np.ndarray:
        """Frontier F with T (m x m) contracted into the codes of the p-th
        site's view: sum_y T[x, y] F[l, y, r]."""
        L, m, R = self.views[p]
        if R == 1:
            return (F.reshape(L, m) @ T.T).reshape(-1)
        return np.matmul(T, F.reshape(L, m, R)).reshape(-1)

    def _block(self, p: int) -> np.ndarray:
        m = self.views[p][1]
        return self.blocks[p, :m, :m]

    def _left(self, p: int) -> np.ndarray:
        while self.left_ok < p:
            q = self.left_ok
            self.left[q + 1] = self._step(self.left[q], q, self._block(q).T)
            self.left_ok += 1
        return self.left[p]

    def _right(self, p: int) -> np.ndarray:
        while self.right_ok > p:
            self.right_ok -= 1
            q = self.right_ok
            self.right[q] = self._step(self.right[q + 1], q, self._block(q))
        return self.right[p]

    def _rows(self, F: np.ndarray, p: int) -> np.ndarray:
        """Frontier F as one row per code of the p-th site's view, (m, L R)."""
        L, m, R = self.views[p]
        return F.reshape(L, m, R).transpose(1, 0, 2).reshape(m, -1)

    def kernel(self, site: int) -> np.ndarray:
        """(k0, k1, k2) with value = k0 + k1 a + k2 conj(a) in the site's component a."""
        p = self.pos[site]
        outer = self._rows(self._left(p), p) @ self._rows(self._right(p + 1), p).T
        return outer.reshape(-1) @ _KERNEL[self.views[p][1]]

    def set(self, site: int, a) -> None:
        """Replace the transverse component of one site."""
        p = self.pos[site]
        self.a[site] = a
        self.blocks[p] = _PAIR * np.tile(_weight(self.a[site]), 3)
        self.left_ok = min(self.left_ok, p)
        self.right_ok = max(self.right_ok, p + 1)

    def value(self) -> float:
        """Block value at the current transverse components."""
        return float(np.real(self._right(0)[0]))

    def least(self, site: int, radius: float) -> float:
        """Least value over the site's disc |a| <= radius / 2, the others
        held: the value there is Re(k0 + 2 k1 a), least at a = -(radius / 2)
        conj(k1) / |k1|, where take(site) moves the site."""
        k0, k1, _ = self.kernel(site)
        self._least = radius, k1
        return k0.real - radius * abs(k1)

    def take(self, site: int) -> None:
        radius, k1 = self._least
        self.set(site, -(radius / 2.0) * (np.conj(k1) / abs(k1)))


def block_value(b: BlockSpec, radii: np.ndarray, thetas) -> float:
    """Exact block value for one assignment via the frontier contraction."""
    return _Frontier(b, _transverse(radii, thetas)).value()


def block_min_prob_dense(b: BlockSpec, r: float, thetas) -> float:
    """Dense-oracle evaluation of the block value (independent backend): the
    block as a circuit with pole +1 inputs at b.radii(r), its operator from
    oracle.dense_output, and every qubit projected onto (I - X)/2.  The
    product state <-|^n is 2^(-n/2) times the parity sign (-1)^|s| of each
    basis state s."""
    n = b.n
    c = ClusterCircuit(
        n_qubits=n,
        edges=tuple(b.edges()),
        inputs=tuple(CylinderExtremum(rho, t, +1) for rho, t in zip(b.radii(r), thetas)),
        plan=(MeasurementRule(Z_BASIS),) * n,
        order=tuple(range(n)),
    )
    parity = np.ones(1)
    for _ in range(n):
        parity = np.concatenate((parity, -parity))
    return float(np.real(parity @ oracle.dense_output(c) @ parity)) / 2**n


def coeff_tensor(b: BlockSpec, order=None) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero terms of the real coefficient tensor D of shape (3,)*n, axis p
    for site order[p] (default: site order): their flat indices, ascending,
    and their values, each a signed power of two.

    The block value is sum_u D_u prod_i y_i(u_i) with y_i = (1, Re a_i,
    Im a_i).  Each vertex subset S has exactly one nonzero entry, at the code
    string u with u_v = 0 off S, u_v = 2 (Im) where v has odd degree in the
    induced subgraph G[S] and u_v = 1 (Re) elsewhere in S, and its value is
    (-1)^(|S| + |E(S)| + m/2) 2^(|S| - n) for m odd-degree vertices.  Why:
    write codes 1 and 2 of (1, a, conj(a)) as sigma = +-1.  The site factor
    gives (-1)^|S| 2^-n, each edge inside S gives -sigma_u sigma_v, the Im
    basis weighs sigma_v and i^m gives (-1)^(m/2), m being even.  The sum
    over sigma then factorizes per vertex into sum_sigma
    sigma^(deg_S(v) + [v in Im]), which is 2 when the exponent is even and 0
    otherwise.  So there are 2^n terms, not 3^n entries, and every value is
    exact in float64.
    """
    n = b.n
    neighbors = [[] for _ in range(n)]
    for u, v in b.edges():
        neighbors[u].append(v)
        neighbors[v].append(u)
    place = np.empty(n, dtype=np.int64)
    place[np.arange(n) if order is None else list(order)] = 3 ** np.arange(n - 1, -1, -1)
    subsets = np.arange(2**n)  # bit v of S is 1 when v is in S
    index, size, m, twice_edges = (np.zeros(2**n, dtype=np.int64) for _ in range(4))
    for v in range(n):
        inside = (subsets >> v) & 1
        degree = inside * sum((subsets >> u) & 1 for u in neighbors[v])  # in G[S], 0 off S
        index += (inside + (degree & 1)) * place[v]
        size += inside
        m += degree & 1
        twice_edges += degree
    value = (1 - 2 * ((size + twice_edges // 2 + m // 2) & 1)) * 2.0 ** (size - n)
    ascending = np.argsort(index)
    return index[ascending], value[ascending]


def _grid_rows(radii: np.ndarray, grid: int) -> np.ndarray:
    """Per site, the rows (1, Re a, Im a) of a = (rho / 2) exp(-i theta) at
    the grid angles theta = 2 pi j / grid, shape (sites, grid, 3).  Rows
    j <= grid / 2 come from their angles, with sin(pi) taken as 0; row
    -j mod grid is row j with Im a negated, so mirror images are exact."""
    angles = np.arange(grid // 2 + 1) * (TWO_PI / grid)
    cos, sin = np.cos(angles), np.sin(angles)
    if grid % 2 == 0:
        sin[-1] = 0.0  # the angle pi is its own mirror image
    mirrored = slice((grid - 1) // 2, 0, -1)  # the rows j with 0 < j < grid - j
    cos, sin = np.concatenate([cos, cos[mirrored]]), np.concatenate([sin, -sin[mirrored]])
    half = np.asarray(radii, dtype=float)[:, None] / 2.0
    return np.stack(np.broadcast_arrays(1.0, half * cos, -half * sin), axis=2)


def _leaders(grid: int, perms) -> np.ndarray:
    """Flat indices, ascending, of the digit strings in range(grid)^k that are
    the least in their orbit under the mirror j -> -j mod grid and the
    permutations perms of the k positions, a group holding the identity."""
    k = len(perms[0])
    index = np.arange(grid**k, dtype=np.min_scalar_type(grid**k - 1)).reshape((grid,) * k)
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


class _Scan:
    """The part of a certification scan that does not depend on r, built once
    per bracket: from terms = (index, value), the nonzero entries of a
    coefficient tensor D of n sites in scan order (coeff_tensor's terms),
    the number of grid angles per site, and head = (k, leaders) from
    _orbit_head.

    The head walk of _grid_chunks contracts terms one head site at a time
    down to level fit, the first level i >= 1 at which the head rows under
    a prefix fit a chunk, or k; from level 1 on, so that no row of all 3^n
    codes is formed.  steps[i] contracts the leading code of the
    level-i terms: the number of level-(i+1) terms and, per code c, the
    positions of the level-i terms with code c and of their remainders among
    the level-(i+1) terms.  index holds the flat indices of the level-fit
    terms among the 3^(n - fit) code strings of the sites from fit on.  tree
    splits the leaders by digit down to level fit: per level a list of
    (digit, subtree) pairs, and at level fit the flat indices of the leaders
    past their prefix, ascending.
    """

    def __init__(self, terms, n: int, grid: int, head):
        index, self.value = terms
        self.n, self.grid, (self.k, leaders) = n, grid, head
        k = self.k
        self.fit = min(i for i in range(1, k + 1) if i == k or grid ** (k - i) * 3 ** (n - k) <= _CHUNK)
        self.steps = []
        for i in range(self.fit):
            place = 3 ** (n - i - 1)
            ends = np.searchsorted(index, place * np.arange(4)).tolist()  # index ascends
            index, target = np.unique(index % place, return_inverse=True)
            self.steps.append((len(index), [(slice(*ends[c : c + 2]), target[ends[c] : ends[c + 1]])
                                            for c in range(3)]))
        self.index = index

        def split(ids, i):
            if i == self.fit:
                return ids
            digit, ids = np.divmod(ids, grid ** (k - i - 1))
            return [(d, split(ids[digit == d], i + 1)) for d in np.flatnonzero(np.bincount(digit))]

        self.tree = split(leaders, 0)


def _grid_chunks(scan: _Scan, radii: np.ndarray):
    """Yield the minimum of the block value per chunk of a uniform per-qubit
    angle grid, visiting one grid point per orbit of a symmetry group.

    Products with the rows (1, Re a, Im a) of each site's grid points
    contract the coefficient tensor D of scan (_Scan): the leading k >= 1
    sites first, giving one head row per grid point of those sites, then the
    rest in chunks of head rows, each chunk small enough (_CHUNK values) to
    stay in cache.  The head rows scanned are those of scan's leaders,
    ascending.

    Head: one recursive walk over the prefixes of the leader strings, down
    scan.tree.  Above level scan.fit the walk forms only the terms of the
    child Y[i][d] contracted with its prefix's terms, per digit d that leads
    to leaders: per term of the child, the sum over the codes of its parents
    in ascending order, which is the sum a BLAS product of the dense rows
    forms.  It holds one set of at most 2^n terms per level, and a scan that
    stops at chunk 0 skips the rest.  At level scan.fit the terms fill a
    dense row of 3^(n - fit) codes; one stacked product per remaining head
    site forms every head row under the prefix, and one fancy index picks
    the leaders'.

    Tail: the rows of two tail sites, np.kron(Y[i-1], Y[i]) of shape
    (grid^2, 9), are built once per scan, the last pair first; a lone first
    tail site keeps its (grid, 3) rows.  Each is one 2-D product over every
    head row of the chunk, P @ t.reshape(-1, 9).T, which moves the pair's
    grid indices to the front.  The products go into two buffers that every
    chunk of the scan reuses, so the heap does not shrink and grow again
    with each chunk.  The values of a chunk come out in another order than
    their grid points, but only the chunk minimum is used.

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
    within rounding_bound(radii) of the exact one at the same grid rows.
    The chunk boundaries and the BLAS kernels fix the order of the
    arithmetic, so they set the last bits; a mirror image need not match
    its grid point bit for bit.
    """
    n, grid, k = scan.n, scan.grid, scan.k
    Y = _grid_rows(radii, grid)
    pairs = np.arange(n - 1, k, -2)  # np.kron(Y[i - 1], Y[i]) of each pair, the last first
    tail = list((Y[pairs - 1, :, None, :, None] * Y[pairs, None, :, None, :]).reshape(len(pairs), grid * grid, 9))
    if (n - k) % 2:
        tail.append(Y[k])

    def head_rows(terms, i, node):
        """Head rows of the leaders under one prefix of length i, whose terms
        are terms; node is the prefix's subtree of scan.tree."""
        if i == scan.fit:
            row = np.zeros(3 ** (n - i))
            row[scan.index] = terms
            for y in Y[i:k]:
                row = np.matmul(y, row.reshape(-1, 3, row.shape[-1] // 3))
            yield row.reshape(grid ** (k - i), -1)[node]
            return
        size, codes = scan.steps[i]
        for d, child in node:
            child_terms = np.zeros(size)
            for y, (parents, at) in zip(Y[i][d], codes):
                child_terms[at] += y * terms[parents]
            yield from head_rows(child_terms, i + 1, child)

    rows = max(1, _CHUNK // grid ** (n - k))
    work = np.empty((2, rows * max(grid, 3) ** (n - k)))
    for t in _rechunk(head_rows(scan.value, 0, scan.tree), rows):
        for P, out in zip(tail, itertools.cycle(work)):
            # the codes of P's sites trail every row; their grid indices lead
            x = t.reshape(-1, P.shape[1]).T
            t = np.matmul(P, x, out=out[: P.shape[0] * x.shape[1]].reshape(P.shape[0], -1))
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


def _grid_sign(scan: _Scan, radii: np.ndarray) -> float:
    """A value with the sign of the grid minimum: the minimum itself when it
    is nonnegative, else the minimum of the first chunk that goes negative,
    where the scan stops."""
    low = math.inf
    for v in _grid_chunks(scan, radii):
        low = min(low, v)
        if v < 0.0:
            break
    return low


def rounding_bound(radii) -> float:
    """How far a value of _grid_chunks(scan, radii) over a block's
    coefficient tensor D, and so a chunk or grid minimum, can lie from the
    exact value at the same grid rows: gamma_{5n} sum_u |D_u| prod_i
    w_i(u_i), with w_i = (1, rho_i/2, rho_i/2) bounding site i's grid rows
    and gamma_m = m u / (1 - m u), u = 2^-53.

    Each term D_u prod_i y_i(u_i) of a value meets at most 5 roundings per
    site: 3 at a head site (one product and two sums in its row of 3), 10 at
    a tail pair (its np.kron entry, then one product and eight sums in its
    row of 9) and 3 at a lone tail site.  Any summation order keeps these
    counts.

    The term of vertex subset S (coeff_tensor) has |D_u| = 2^(|S| - n) and
    weight prod_{i in S} rho_i / 2, so the sum is exactly
    2^-n prod_i (1 + rho_i).  Evaluating it makes 2n roundings: n sums
    1 + rho_i, n - 1 products and the product with gamma_{5n}.  The result
    is padded for them by the factor 1 + gamma_{2n}.
    """
    n = len(radii)
    nu, pad = 5 * n * 2.0**-53, 2 * n * 2.0**-53
    sums = (1.0 + np.asarray(radii, dtype=float)).tolist()
    return nu / (1.0 - nu) * math.prod(sums) * 2.0**-n * (1.0 + pad / (1.0 - pad))


def _real_terms(terms, order) -> tuple[np.ndarray, np.ndarray]:
    """The terms of coefficient tensor terms = coeff_tensor(b, order) that
    have no Im code, the only ones that do not vanish at real transverse
    components: per site, in site order, a row of -1 on the terms that
    contain it and 1 elsewhere, and the terms' values.  Each is the term of
    a vertex subset S whose code string is 1 on S and 0 off S (no vertex of
    odd degree in G[S]): 278 of 4,096 on 3x4.  The flat indices of those
    strings, for every S, are looked up among the terms' indices."""
    index, value = terms
    n = len(order)
    place = np.empty(n, dtype=np.int64)
    place[list(order)] = 3 ** np.arange(n - 1, -1, -1)
    strings = np.zeros(1, dtype=np.int64)  # at S, bit v of S for site v
    for v in range(n):
        strings = np.concatenate([strings, strings + place[v]])
    at = np.searchsorted(index, strings)
    real = index[np.minimum(at, len(index) - 1)] == strings
    subsets = np.flatnonzero(real)
    return 1.0 - 2.0 * ((subsets >> np.arange(n)[:, None]) & 1), value[at[real]]


class _RealTerms:
    """Block value at real transverse components a, from the real terms of
    its coefficient tensor (_real_terms): D_S prod_{i in S} a_i summed over
    them.  order is the order in which a descent visits the sites.

    Flipping the sign of a_i negates the terms that contain i, so it changes
    the value by -2 q_i, q_i the sum of those terms; least gives the value
    after the flip, one product of the flip rows with the current terms for
    every site at once, formed again after each take.  At real components
    the terms with an Im code at site i vanish, so the value is affine in
    Re a_i alone and least over the disc |a_i| <= rho_i / 2 at rho_i / 2 or
    -rho_i / 2: from a start on those circles the flip is the only move,
    and where it does not lower the value the descent rejects it.
    """

    def __init__(self, real, order, a):
        self.flips, value = real
        self.order = order
        self.a = np.array(a, dtype=float)
        self.terms = value * np.prod(np.where(self.flips < 0.0, self.a[:, None], 1.0), axis=0)
        self.flipped = None

    def value(self) -> float:
        return float(self.terms.sum())

    def least(self, site: int, radius: float) -> float:
        """The value after flipping the site's sign, which lands on the
        circle |a| = radius / 2 of its start."""
        if self.flipped is None:
            self.flipped = self.flips @ self.terms
        return self.flipped[site]

    def take(self, site: int) -> None:
        self.a[site] = -self.a[site]
        self.terms *= self.flips[site]
        self.flipped = None


def _zero_point(real, radii: np.ndarray) -> float:
    """Block value at the all-zero grid point of a scan at radii (in site
    order), every a_i = rho_i / 2, which every scan holds, from the real
    terms of its coefficient tensor (_real_terms)."""
    return _RealTerms(real, range(len(radii)), radii / 2.0).value()


def _coordinate_descent(chain, radii: np.ndarray) -> tuple[float, np.ndarray]:
    """Greedy descent over the transverse components a_i held by an
    evaluator chain, from where it stands: a _Frontier, for any components,
    or _RealTerms, for real ones.

    Per site, chain.least(i, rho_i) is the least value over the disc
    |a_i| <= rho_i / 2 with the other sites held, and chain.take(i) moves a_i
    there.  The value is affine in each a_i, Re(k0 + 2 k1 a_i) given the
    others, so the best a_i is -(rho_i / 2) conj(k1) / |k1|.  Codes 1 and 2
    enter _SITE and _EDGE symmetrically, so real components give real
    kernels, and the best a_i is then a sign flip: a real start stays real,
    the frontier keeps its dtype, float64 or complex, and on real components
    both evaluators propose the same moves.  The one acceptance rule takes a
    move that lowers the value by more than 2^-40 of its size.  Block values
    shrink roughly like 2^-n, so a least gain fixed in absolute terms stops
    a large block's descent on the wrong side of zero, and a floor on |k1|
    would stall large blocks too.  A sweep visits the sites in chain.order,
    the frontier's absorption order for both evaluators, so an accepted move
    on the frontier costs one environment step, not one per line of the
    short side, and a sweep about 2n.  Returns the value where the descent
    ended and chain.a, the components there.
    """
    val = chain.value()
    for _ in range(_MAX_SWEEPS):
        improved = False
        for i in chain.order:
            cand = chain.least(i, radii[i])
            if cand < val - 2.0**-40 * abs(val):
                chain.take(i)
                val = cand
                improved = True
        if not improved:
            break
    return float(val), chain.a


def _angles(a) -> tuple[float, ...]:
    """Input angles of transverse components a = (rho / 2) exp(-i theta),
    in [0, 2 pi): exactly 0.0 or pi for real components."""
    return tuple(float(-t % TWO_PI) for t in np.angle(a))


class Probe(NamedTuple):
    """One bisection probe: the bound it served ("upper" or "lower"), its
    radius, whether it held, and the value that decided it.  An upper probe's
    value is where the zero-start descent on the bracket's real terms
    (_RealTerms) ended, within rounding_bound of where the frontier descent
    ends, and it holds when that is nonnegative.  A lower probe holds when
    its value is at least the bracket's bound, rounding_bound at the
    inflated radii of upper (see s_estimate), and its value comes from the
    screen that decided it (SEstimate.lower_screen): the all-zero grid
    point's value, when that is below the bound or the point settled the
    bisection, else the full scan's (_grid_sign).  The probe at lower records
    the minimum of the full scan that confirmed it, and the one at an
    uncapped upper the witness's value."""

    bound: str
    r: float
    holds: bool
    value: float


@dataclass(frozen=True)
class SEstimate:
    """Bracket [lower, upper] for a block threshold.

    lower is certified: at radii inflated by cert_inflation =
    1/cos(pi/cert_grid), a full scan's grid minimum was at least its rounding
    bound, so the exact grid minimum was nonnegative, which bounds the
    continuous minimum from below.  upper is witnessed: witness, the
    assignment where the descent of the failing probe at upper ended, has a
    negative value there (unless capped: the search cap was reached).
    theta_grid is the requested certification grid, cert_grid the one used.
    A full certification scan visits scan_points of its cert_grid^n points,
    one per orbit of a symmetry group of order scan_group_order (_orbit_head).
    cert_rounding_bound is rounding_bound at the inflated radii of lower:
    how far the scan's grid minimum there can lie from the exact one.  It is
    at most the bound that every lower probe cleared, the one at upper.
    lower_screen names the screen that settled the lower bisection, "point"
    or "full" (s_estimate).  probes lists every probe of the upper
    bisection and of that screen's lower bisection, in order.
    """

    lower: float
    upper: float
    theta_grid: int
    cert_grid: int
    cert_inflation: float
    scan_group_order: int
    scan_points: int
    cert_rounding_bound: float
    lower_screen: str
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
    is always such a probe, and its assignment is the witness.  From 0.05
    the search multiplies r by 1.5 while probes hold, or divides it by 1.5
    until one holds (as r -> 0 the value tends to 2^-n > 0), then bisects.
    Its components stay real, so it descends on the real terms of the scan's
    coefficient tensor (_real_terms, built once per bracket), where a move
    flips one sign and changes the value by -2 q_i, in the frontier's
    absorption order and by the acceptance rule of _coordinate_descent,
    which the frontier descent of the witness hunt shares.  A lower probe
    scans the minimum over G angles per site (theta_grid, halved to fit
    _CERT_BUDGET, to no fewer than 4) at radii inflated by 1/cos(pi/G): a
    minimum of at least rounding_bound, the scan's forward error, certifies
    the continuous minimum.  A scan stops at the first chunk of grid points
    that goes negative.  The scan visits one grid point per orbit of the
    block's symmetry group; its head, leader split and coefficient terms
    are set up once (_Scan), for every lower probe.

    Every lower probe clears one bound, B = rounding_bound at the inflated
    radii of upper.  rounding_bound does not decrease with r (sums and
    products of the inflated radii and other nonnegative operands, each
    monotone under round-to-nearest), so B is at least the bound rb(r') of
    every probe at r' <= upper.

    The exact grid minimum does not increase with r (module docstring), so
    one full scan at the final lower can confirm a bisection run on cheaper
    screens.  Each lower probe is first evaluated at the all-zero grid point,
    which every scan holds, from the real terms (_zero_point): below B the
    probe fails with no scan.  The first bisection runs on that point alone
    ("point"); if the full scan at its lower misses 3 B, it runs again with
    a full scan of each probe the point passes ("full").  Unless capped, the
    probe at upper evaluates nothing and fails: the witness lies in the
    polygons at upper, so the exact grid minimum there is negative.

    With exact grid minima E, a hold at r' <= lower that a full scan would
    fail is caught: that scan reads E(r') - rb(r') < B, so the scan at lower
    reads at most E(lower) + rb(lower) <= E(r') + rb(lower) < B + rb(r') +
    rb(lower) <= 3 B, and the full screen runs.  A point below B fails as
    the full scan would, unless the point's value lies within the two
    evaluations' rounding errors below B.

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
    terms = coeff_tensor(b, order)
    scan = _Scan(terms, b.n, cert_grid, head)
    real, visit = _real_terms(terms, order), _absorption(b)[1]
    scan_points = len(head[1]) * cert_grid ** (b.n - head[0])
    inflate = 1.0 / math.cos(math.pi / cert_grid)
    probes = []
    witnesses = {}  # value and assignment of each failing upper probe, by radius

    def nonnegative(r: float) -> bool:
        radii = b.radii(r)
        v, a = _coordinate_descent(_RealTerms(real, visit, radii / 2.0), radii)
        probes.append(Probe("upper", r, v >= 0.0, v))
        if v < 0.0:
            witnesses[r] = v, a
        return v >= 0.0

    # upper: smallest r with a concrete negative witness
    hi = 0.05
    while hi <= R_SEARCH_CAP and nonnegative(hi):
        hi *= 1.5
    capped = hi > R_SEARCH_CAP
    if capped:
        upper, witness = R_SEARCH_CAP, None
    else:
        if hi == 0.05:  # the first probe failed: shrink until one holds
            while not nonnegative(hi / 1.5):
                hi /= 1.5
        _, upper = _bisect(hi / 1.5, hi, bisect_tol, nonnegative)
        witness = _angles(witnesses[upper][1])

    # lower: largest r whose inflated-grid minimum is certified nonnegative,
    # screened at the all-zero grid point, then on full scans
    def cert_radii(r: float) -> np.ndarray:
        return b.radii(r)[order] * inflate

    bound = rounding_bound(cert_radii(upper))

    def certified(r: float, full: bool) -> bool:
        if r == upper and not capped:
            v = witnesses[upper][0]  # the witness lies in the polygons at upper
        else:
            radii = b.radii(r) * inflate
            v = _zero_point(real, radii)
            if v >= bound and full:
                v = _grid_sign(scan, radii[order])
        probes.append(Probe("lower", r, v >= bound, v))
        return v >= bound

    screened = len(probes)
    for lower_screen, full in (("point", False), ("full", True)):
        del probes[screened:]
        lo = upper if certified(upper, full) else 0.0
        lower = _bisect(lo, upper, bisect_tol, lambda r: certified(r, full))[0]
        if lower == 0.0 or full:
            break  # nothing to confirm, or every probe that passed the point ran a full scan
        v = _grid_sign(scan, cert_radii(lower))
        if v >= 3.0 * bound:
            last = max(i for i in range(screened, len(probes)) if probes[i].holds)  # at lower
            probes[last] = probes[last]._replace(value=v)
            break
    return SEstimate(
        lower=lower,
        upper=upper,
        theta_grid=theta_grid,
        cert_grid=cert_grid,
        cert_inflation=inflate,
        scan_group_order=group_order,
        scan_points=scan_points,
        cert_rounding_bound=rounding_bound(cert_radii(lower)),
        lower_screen=lower_screen,
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


def find_negativity_witness(
    b: BlockSpec, r_values, restarts: int = 4, seed: int = 0
) -> tuple[float, tuple[float, ...]] | None:
    """Smallest r in r_values at which a coordinate descent on the frontier
    ends below zero, and the angles where it ended; None if there is none.

    At each r the descent runs from the all-zero angles, then from restarts
    random {0, pi} patterns drawn from seed (the same patterns at every r),
    and the hunt returns at the first start that ends negative.  Real starts
    give real kernels, so every move is a sign flip, valued exactly, and
    the angles stay in {0, pi}.  That the minimum sits at real components is
    a conjecture, so a witness is upper-bound material only.
    """
    for r in r_values:
        radii = b.radii(r)
        rng = np.random.default_rng(seed)
        for start in range(restarts + 1):
            signs = rng.choice([-1, 1], size=b.n) if start else np.ones(b.n)
            v, a = _coordinate_descent(_Frontier(b, signs * (radii / 2.0)), radii)
            if v < 0.0:
                return float(r), _angles(a)
    return None
