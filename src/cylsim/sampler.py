"""Classical sampling of cluster circuits with cylinder inputs.

Each CZ is replaced by its stochastic separable update, so the state stays
a product of cylinder extrema throughout; measurements are then sampled
from single-qubit Born values.  This is efficient whenever every vertex v
satisfies r_v <= growth^(-D_v) with D_v the vertex degree, since radii grow
by the factor `growth` per incident gate and must end inside the unit
cylinder (the dual of the allowed measurements).

A branch update never changes a pole and multiplies both radii by the
growth, so one shot is a vector of n angles plus n adaptive draws.  Shots
are sampled in fixed-size blocks, vectorised over the block; each block
draws its uniforms from its own counter-based stream Philox(key=[seed,
block]), so the count table for a seed does not depend on how many threads
share the blocks.

sample_parallel is the one sampling entry point.  It returns an
outcomes.OutcomeTable, the sum (outcomes.total) of each block's count table
(OutcomeTable.counted), whose bitstrings are built only when asked for.  The
default representation is stored below as angle-grid indices and checked on
load; only a non-default growth margin solves the LP.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuits import ClusterCircuit
from .czdec import (
    LAMBDA,
    StochasticRep,
    build_decomposition,
    grid_rep,
    mixture_residual,
)
from .geometry import Z_BASIS
from .outcomes import OutcomeTable, total

#: relative headroom between the sampler's growth factor and the critical one
DEFAULT_GROWTH_MARGIN = 1e-3

#: angle grid used for the cached decomposition; 128 leaves provable
#: feasibility slack at f = 1/(LAMBDA*(1+margin)) where 64 does not
REP_GRID_SIZE = 128

#: max-norm residual a representation must meet, stored or solved
REP_TOL = 1e-6

#: the LP solution at DEFAULT_GROWTH_MARGIN on REP_GRID_SIZE as (weight, j, k):
#: branch angles are j and k steps of 2*pi/REP_GRID_SIZE
_DEFAULT_TABLE = (
    (0.08316908131323694, 3, 33),
    (0.18266411299837287, 6, 30),
    (0.04582532377044778, 31, 3),
    (0.06440991747267705, 31, 5),
    (0.10475283812078656, 33, 6),
    (0.044973792284386076, 66, 127),
    (0.02964531168693419, 97, 121),
    (0.1833546036259833, 98, 123),
    (0.2612050187271752, 123, 97),
)

RADIUS_TOL = 1e-9

#: shots per counter-based stream; a block's arrays take a few MB
BLOCK_SHOTS = 1 << 14

#: most uniforms one call may draw (one per edge and one per vertex a shot):
#: 20 to 32 minutes at the 0.9-1.4e7 uniforms/s one thread draws on 12 qubits
MAX_UNIFORMS = 1 << 34


class TooManyShots(ValueError):
    """A shot count whose uniforms exceed MAX_UNIFORMS."""


@dataclass(frozen=True)
class VertexBound:
    vertex: int
    degree: int
    radius: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class SimulabilityReport:
    growth: float
    vertices: tuple[VertexBound, ...]

    @property
    def simulable(self) -> bool:
        return all(v.ok for v in self.vertices)


def check_simulable(c: ClusterCircuit, growth: float) -> SimulabilityReport:
    """Per-vertex radius bounds growth^(-D_v) and whether the inputs meet them."""
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    rows = []
    for v in range(c.n_qubits):
        d = c.degree(v)
        bound = growth ** (-d)
        r = c.inputs[v].r
        ok = _final_radius(r, growth, d) <= 1.0 + RADIUS_TOL
        rows.append(VertexBound(v, d, r, bound, ok))
    return SimulabilityReport(growth=growth, vertices=tuple(rows))


def _final_radius(r: float, growth: float, degree: int) -> float:
    """Radius after `degree` incident gates; a zero radius stays zero."""
    return 0.0 if r == 0.0 else r * growth**degree


@functools.cache
def default_rep(growth_margin: float = DEFAULT_GROWTH_MARGIN) -> StochasticRep:
    """Stochastic CZ representation at growth LAMBDA*(1+margin), built once per
    margin: from _DEFAULT_TABLE at the default margin, else by LP."""
    if not growth_margin > -1.0:
        raise ValueError(f"growth margin must exceed -1, got {growth_margin!r}")
    f = 1.0 / (LAMBDA * (1.0 + growth_margin))
    if round(growth_margin, 15) == DEFAULT_GROWTH_MARGIN:
        return grid_rep(f, REP_GRID_SIZE, _DEFAULT_TABLE, tol=REP_TOL)
    return build_decomposition(f, grid_size=REP_GRID_SIZE, tol=REP_TOL)


def rep_provenance(growth_margin: float = DEFAULT_GROWTH_MARGIN) -> dict:
    """Growth, branch count, residual and source ("stored" or "lp") of default_rep."""
    rep = default_rep(growth_margin)
    stored = round(growth_margin, 15) == DEFAULT_GROWTH_MARGIN
    return {
        "growth": rep.growth,
        "branches": len(rep.branches),
        "residual": mixture_residual(1.0 / rep.growth, rep.branches),
        "source": "stored" if stored else "lp",
    }


class _ShotKernel:
    """Per-circuit constants of the batched sampler.

    A row of uniforms holds one draw per edge (branch selection), then one
    per measurement in c.order; outcomes() maps rows to outcome bits.
    """

    def __init__(self, c: ClusterCircuit, rep: StochasticRep):
        g = rep.growth
        radius = [_final_radius(e.r, g, c.degree(v)) for v, e in enumerate(c.inputs)]
        bad = [v for v, r in enumerate(radius) if r > 1.0 + RADIUS_TOL]
        if bad:
            raise ValueError(
                f"circuit not simulable at growth {g:.6f}: vertices {bad} would leave "
                "the unit cylinder"
            )
        self.radius = radius
        self.pole = [e.pole for e in c.inputs]
        # a partner of pole -1 adds pi to the angle (see apply_branch)
        theta = [e.theta for e in c.inputs]
        for a, b in c.edges:
            if self.pole[b] < 0:
                theta[a] += math.pi
            if self.pole[a] < 0:
                theta[b] += math.pi
        self.theta = np.array(theta)
        self.edges = c.edges
        self.cdf = np.cumsum([b[0] for b in rep.branches])
        self.da = np.array([b[1] for b in rep.branches])
        self.db = np.array([b[2] for b in rep.branches])
        self.steps = [(v, c.plan[v], sorted(c.plan[v].sign_deps), sorted(c.plan[v].shift_deps))
                      for v in c.order]
        self.n = c.n_qubits
        self.width = len(c.edges) + c.n_qubits

    def outcomes(self, u: np.ndarray) -> np.ndarray:
        """Outcome bits, shape (shots, n) with column v for vertex v, of uniform rows u."""
        shots, n_edges = len(u), len(self.edges)
        # branch i where cdf[i-1] <= u < cdf[i]; rounding past cdf[-1] takes the last
        branch = np.searchsorted(self.cdf, u[:, :n_edges], side="right")
        np.minimum(branch, len(self.cdf) - 1, out=branch)
        theta = np.tile(self.theta, (shots, 1))
        for e, (a, b) in enumerate(self.edges):
            theta[:, a] += self.pole[a] * self.da[branch[:, e]]
            theta[:, b] += self.pole[b] * self.db[branch[:, e]]
        bits = np.empty((shots, self.n), dtype=np.uint8)
        for col, (v, rule, sign_deps, shift_deps) in enumerate(self.steps, start=n_edges):
            if rule.kind == Z_BASIS:
                bits[:, v] = self.pole[v] < 0  # p0 = (1 + pole)/2 is 1 or 0
                continue
            # p0 = (1 + r cos(theta - alpha))/2 with alpha = +-base_alpha (+ pi)
            phase = theta[:, v] - rule.base_alpha
            if sign_deps:
                phase += 2.0 * rule.base_alpha * np.bitwise_xor.reduce(bits[:, sign_deps], axis=1)
            amp = 0.5 * self.radius[v]
            if shift_deps:
                amp = amp * (1.0 - 2.0 * np.bitwise_xor.reduce(bits[:, shift_deps], axis=1))
            # u < p0 gives 0; u lies in [0, 1), so p0 needs no clamping
            bits[:, v] = u[:, col] >= 0.5 + amp * np.cos(phase)
        return bits


def sample_parallel(
    c: ClusterCircuit,
    shots: int,
    seed: int,
    rep: StochasticRep,
    threads: int = 1,
) -> OutcomeTable:
    """Bitstring -> count table of `shots` shots, blocks of BLOCK_SHOTS split
    across at most `threads` threads, and no more than there are blocks or CPUs.

    Position v holds vertex v's bit; the table holds the distinct outcomes as
    sorted packed-bit rows and their counts, and builds strings only when
    asked for them.  Block b draws from Philox(key=[seed, b]), so the table
    is the same for every thread count.  Raises ValueError for a
    negative shot count, a seed outside [0, 2^64), fewer than one thread, or a
    circuit whose final radii leave the unit cylinder, and TooManyShots, before
    any work, when shots * (edges + vertices) uniforms exceed MAX_UNIFORMS.
    """
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    need = shots * (len(c.edges) + c.n_qubits)
    if need > MAX_UNIFORMS:
        raise TooManyShots(
            f"{shots} shots need {need} uniform draws, more than the cap of {MAX_UNIFORMS}"
        )
    kernel = _ShotKernel(c, rep)
    blocks = range(-(-shots // BLOCK_SHOTS))

    def run(block: int):
        size = min(BLOCK_SHOTS, shots - block * BLOCK_SHOTS)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
        return OutcomeTable.counted(kernel.outcomes(rng.random((size, kernel.width))))

    # each worker holds one block's arrays, so more workers than cores only add memory
    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        parts = [run(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks))
    return total(c.n_qubits, parts)
