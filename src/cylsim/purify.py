"""Ancilla-chain steering of a |+> state onto a lattice site.

A carrier qubit at angle psi (state cos(psi/2)|0> + sin(psi/2)|1>) is
CZ-coupled to the next qubit at angle phi and measured in the X basis.
Outcome 1 succeeds: under the constraint psi + phi = pi/2 the next qubit
collapses to |+>.  Outcome 0 rotates the next qubit toward |0>; its new
angle feeds the next round.  The site succeeds if any round succeeds.

The closed forms below are checked against a dense two-qubit computation;
the angle-to-radius map r = |sin(phi)| connects the protocol to cylinder
radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: square-lattice site percolation threshold (literature constant)
P_C = 0.5927

HALF_PI = math.pi / 2.0

#: slack for the chain constraint psi_k + phi_{k+1} = pi/2 (allows the
#: two-decimal rounding of published angle triples)
CONSTRAINT_TOL = 0.02


def branch_probs(phi1: float, phi2: float) -> tuple[float, float]:
    """(success, failure) probabilities of one X measurement on the pair."""
    p1 = 0.5 * (1.0 - math.sin(phi1) * math.cos(phi2))
    return p1, 1.0 - p1


def failure_angle(phi1: float, phi2: float) -> float:
    """Post-measurement angle of the second qubit on outcome 0."""
    c1, s1 = math.cos(phi1 / 2.0), math.sin(phi1 / 2.0)
    c2, s2 = math.cos(phi2 / 2.0), math.sin(phi2 / 2.0)
    return 2.0 * math.atan2((c1 - s1) * s2, (c1 + s1) * c2)


def success_angle(phi1: float, phi2: float) -> float:
    """Post-measurement angle on outcome 1; pi/2 when phi1 + phi2 = pi/2."""
    c1, s1 = math.cos(phi1 / 2.0), math.sin(phi1 / 2.0)
    c2, s2 = math.cos(phi2 / 2.0), math.sin(phi2 / 2.0)
    return 2.0 * math.atan2((c1 + s1) * s2, (c1 - s1) * c2)


def dense_measurement(phi1: float, phi2: float, outcome: int) -> tuple[float, np.ndarray]:
    """Two-qubit reference: CZ then X measurement of qubit 1.

    Returns (probability, normalized post state of qubit 2); independent of
    the closed forms above, used as their oracle.
    """
    v1 = np.array([math.cos(phi1 / 2.0), math.sin(phi1 / 2.0)])
    v2 = np.array([math.cos(phi2 / 2.0), math.sin(phi2 / 2.0)])
    psi = np.kron(v1, v2)
    psi[3] = -psi[3]  # CZ phase on |11>
    sign = -1.0 if outcome == 1 else 1.0
    xvec = np.array([1.0, sign]) / math.sqrt(2.0)
    post = xvec[0] * psi[:2] + xvec[1] * psi[2:]
    p = float(post @ post)
    if p <= 0.0:
        return 0.0, np.array([1.0, 0.0])
    return p, post / math.sqrt(p)


@dataclass(frozen=True)
class ChainProtocol:
    """Prepared ancilla angles; round k pairs the carrier with angles[k].

    The carrier starts at angles[0]; the final round targets the derived
    angle pi/2 - psi so that its success branch also lands on |+>.  The
    consecutive-sum constraint is validated with a small slack.
    """

    angles: tuple[float, ...]

    def __post_init__(self):
        if len(self.angles) < 1:
            raise ValueError("at least one ancilla angle required")
        # every pair but the derived last one must meet the constraint
        for k, (psi, phi) in enumerate(self.measurement_pairs()[:-1], start=1):
            if abs(psi + phi - HALF_PI) > CONSTRAINT_TOL:
                raise ValueError(
                    f"chain constraint violated at step {k}: {psi:.4f} + {phi:.4f} != pi/2"
                )

    def measurement_pairs(self) -> list[tuple[float, float]]:
        """(carrier, partner) angle pairs for every round, last one derived."""
        pairs = []
        psi = self.angles[0]
        for k in range(1, len(self.angles)):
            pairs.append((psi, self.angles[k]))
            psi = failure_angle(psi, self.angles[k])
        pairs.append((psi, HALF_PI - psi))
        return pairs

    def r_max(self) -> float:
        return max(abs(math.sin(phi)) for phi in self.angles)


def site_success_prob(protocol: ChainProtocol) -> float:
    """Probability that some round of the chain succeeds."""
    total = 0.0
    alive = 1.0
    for psi, phi in protocol.measurement_pairs():
        p1, p0 = branch_probs(psi, phi)
        total += alive * p1
        alive *= p0
    return total


def simulate_chain(protocol: ChainProtocol, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of the site success probability."""
    pairs = protocol.measurement_pairs()
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    u = rng.random((trials, len(pairs)))
    alive = np.ones(trials, dtype=bool)
    success = np.zeros(trials, dtype=bool)
    for k, (psi, phi) in enumerate(pairs):
        p1, _ = branch_probs(psi, phi)
        hit = alive & (u[:, k] < p1)
        success |= hit
        alive &= ~hit
    return float(np.mean(success))


def derive_chain(phi1: float, n_ancilla: int) -> tuple[float, ...]:
    """Angles of an exactly-constrained chain generated by its first angle."""
    angles = [phi1]
    psi = phi1
    for _ in range(n_ancilla - 1):
        nxt = HALF_PI - psi
        angles.append(nxt)
        psi = failure_angle(psi, nxt)
    return tuple(angles)


def optimize_angles(
    n_ancilla: int, r_cap: float, grid: int = 200, cap_tol: float = 5e-3
) -> tuple[tuple[float, ...], float]:
    """Best exactly-constrained chain under the radius cap max |sin phi_k|.

    One free parameter (the first angle) fixes the whole chain, so a grid
    sweep plus local refinement suffices.  cap_tol loosens the radius cap
    slightly, matching the two-decimal rounding of published caps.  Returns
    (angles, p_site); an infeasible cap yields (zeros, 0.0).
    """
    if n_ancilla < 1 or n_ancilla > 5:
        raise ValueError("n_ancilla must be in 1..5")
    if r_cap < 0.0:
        raise ValueError("r_cap must be nonnegative")

    def evaluate(phi1: float) -> tuple[float, tuple[float, ...]]:
        angles = derive_chain(phi1, n_ancilla)
        if max(abs(math.sin(a)) for a in angles) > r_cap + cap_tol:
            return -1.0, angles
        return site_success_prob(ChainProtocol(angles)), angles

    best_p, best_angles, best_phi = -1.0, None, None
    for k in range(1, grid):
        phi1 = HALF_PI * k / grid
        p, angles = evaluate(phi1)
        if p > best_p:
            best_p, best_angles, best_phi = p, angles, phi1
    if best_p < 0.0 or best_angles is None:
        return (0.0,) * n_ancilla, 0.0
    step = HALF_PI / grid
    while step > 1e-10:
        for cand in (best_phi - step / 2.0, best_phi + step / 2.0):
            if 0.0 < cand < HALF_PI:
                p, angles = evaluate(cand)
                if p > best_p:
                    best_p, best_angles, best_phi = p, angles, cand
        step /= 2.0
    return best_angles, best_p


def percolation_verdict(p_site: float) -> bool:
    """Strictly above the site percolation threshold."""
    if not 0.0 <= p_site <= 1.0:
        raise ValueError("p_site must be a probability")
    return p_site > P_C
