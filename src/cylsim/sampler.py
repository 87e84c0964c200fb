"""Classical sampling of cluster circuits with cylinder inputs.

Each CZ is replaced by its stochastic separable update, so the state stays
a product of cylinder extrema throughout; measurements are then sampled
from single-qubit Born values of the circuit's pole normal form
(circuits.pole_normal_form), whose outcomes are lifted back to n bits.  This
is efficient whenever its every vertex v satisfies r_v <= growth^(-D_v),
D_v its degree there, since radii grow by the factor `growth` per incident
gate and must end inside the unit cylinder (the dual of the allowed
measurements).  A Z-measured vertex is pole-only: it has no bound, and its
edges grow no radius.

A branch update multiplies both radii by the growth, so one shot is a
vector of angles plus one adaptive draw a vertex.  Shots are sampled in
fixed-size blocks, vectorised over the block; each block draws its uniforms
from its own counter-based stream Philox(key=[seed, block]), so the count
table for a seed does not depend on how many threads share the blocks.

sample_parallel is the one sampling entry point, and every call runs
through one thread pool whose first worker is the calling thread.  Before
its other checks it applies check_simulable, the one radius rule.  It
returns an outcomes.OutcomeTable, the sum (outcomes.total) of each block's
count table (OutcomeTable.counted), whose bitstrings are built only when
asked for.  The default representation is stored below as angle-grid
indices and checked on load, and only a non-default growth margin solves
the LP; either way it records its own residual and source.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuits import ClusterCircuit
from .czdec import LAMBDA, StochasticRep, build_decomposition, grid_rep
from .outcomes import OutcomeTable, total

#: relative headroom between the sampler's growth factor and the critical one
DEFAULT_GROWTH_MARGIN = 1e-3

#: angle grid of every representation; grids 16 to 128 all meet REP_TOL at the
#: default margin, and 128 stays because the stored indices are steps of 2*pi/128
REP_GRID_SIZE = 128

#: max-norm residual a representation must meet, stored or solved
REP_TOL = 1e-6

#: the 16-row LP's solution (tests' reference_lp_feasibility) at the default
#: margin as (weight, j, k), angles j and k steps of 2*pi/REP_GRID_SIZE; it is
#: not mirror-closed, and the residual check on load is its judge
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
    degree: int | None  # in the pole normal form; None for a pole-only vertex
    radius: float
    bound: float | None
    #: "ok" within the bound, "EXCEEDED" past it, or "pole-only" (Z-measured)
    status: str


@dataclass(frozen=True)
class SimulabilityReport:
    growth: float
    vertices: tuple[VertexBound, ...]

    @property
    def simulable(self) -> bool:
        return all(v.status != "EXCEEDED" for v in self.vertices)


class NotSimulable(ValueError):
    """A circuit whose final radii leave the unit cylinder, with its
    check_simulable report, one message line a vertex."""

    def __init__(self, report: SimulabilityReport):
        super().__init__("\n".join(
            f"vertex {v.vertex}: radius {v.radius:.6g} [{v.status}]" if v.bound is None else
            f"vertex {v.vertex}: degree {v.degree}, radius {v.radius:.6g}, "
            f"bound {v.bound:.6g} [{v.status}]" for v in report.vertices))
        self.report = report


def check_simulable(c: ClusterCircuit, growth: float) -> SimulabilityReport:
    """Per-vertex radius bounds growth^(-D_v), D_v the degree in c's pole
    normal form, and whether the inputs meet them.  A Z-measured vertex is
    pole-only: the normal form drops it, so it has no bound to meet."""
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    nf = c.normal_form
    rows = [VertexBound(v, None, e.r, None, "pole-only") for v, e in enumerate(c.inputs)]
    for i, v in enumerate(nf.kept):
        d = nf.circuit.degree(i)
        r = c.inputs[v].r
        within = _final_radius(r, growth, d) <= 1.0 + RADIUS_TOL
        rows[v] = VertexBound(v, d, r, growth ** (-d), "ok" if within else "EXCEEDED")
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


class _ShotKernel:
    """Per-circuit constants of the batched sampler on a pole normal form.

    A row of uniforms holds one draw per edge (branch selection), then one
    per measurement in c.order; outcomes() maps rows to outcome bits.
    """

    def __init__(self, c: ClusterCircuit, rep: StochasticRep):
        g = rep.growth
        self.radius = [_final_radius(e.r, g, c.degree(v)) for v, e in enumerate(c.inputs)]
        self.theta = np.array([e.theta for e in c.inputs])
        self.edges = c.edges
        self.cdf = np.cumsum([b[0] for b in rep.branches])
        self.da = np.array([b[1] for b in rep.branches])
        self.db = np.array([b[2] for b in rep.branches])
        self.steps = [(v, c.plan[v]) for v in c.order]
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
            theta[:, a] += self.da[branch[:, e]]
            theta[:, b] += self.db[branch[:, e]]
        bits = np.empty((shots, self.n), dtype=np.uint8)
        for col, (v, rule) in enumerate(self.steps, start=n_edges):
            # p0 = (1 + r cos(theta - alpha))/2; u < p0 gives 0, and u lies in
            # [0, 1), so p0 needs no clamping
            phase = theta[:, v] - rule.azimuths(bits)
            bits[:, v] = u[:, col] >= 0.5 + 0.5 * self.radius[v] * np.cos(phase)
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
    is the same for every thread count.  Raises, before any work and in this
    order, NotSimulable for a circuit whose final radii leave the unit
    cylinder, ValueError for a negative shot count, a seed outside [0, 2^64)
    or fewer than one thread, and TooManyShots when shots * (edges +
    vertices) uniforms of c's pole normal form exceed MAX_UNIFORMS."""
    report = check_simulable(c, rep.growth)
    if not report.simulable:
        raise NotSimulable(report)
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    nf = c.normal_form
    need = shots * (len(nf.circuit.edges) + nf.circuit.n_qubits)
    if need > MAX_UNIFORMS:
        raise TooManyShots(
            f"{shots} shots need {need} uniform draws, more than the cap of {MAX_UNIFORMS}"
        )
    kernel = _ShotKernel(nf.circuit, rep)
    blocks = range(-(-shots // BLOCK_SHOTS))

    def run(block: int):
        size = min(BLOCK_SHOTS, shots - block * BLOCK_SHOTS)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
        return OutcomeTable.counted(nf.lift(kernel.outcomes(rng.random((size, kernel.width)))))

    # each worker holds one block's arrays, so more workers than cores only add
    # memory.  The calling thread is the first worker, as a fresh thread made
    # one-block calls 0.3-0.9 ms slower on 2 cores; each worker takes the next
    # block until none is left (a range iterator advances under the GIL), and
    # integer counts sum the same in any order.
    workers = max(1, min(threads, len(blocks), os.cpu_count() or 1))
    pending = iter(blocks)

    def drain() -> list:
        return [run(b) for b in pending]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        parts = drain() + [part for h in helpers for part in h.result()]
    return total(c.n_qubits, parts)
