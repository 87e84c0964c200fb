"""Ancilla-chain steering of a |+> state onto a lattice site.

A carrier qubit at angle psi (state cos(psi/2)|0> + sin(psi/2)|1>) is
CZ-coupled to the next qubit at angle phi and measured in the X basis.
Outcome 1 succeeds: under the constraint psi + phi = pi/2 the next qubit
collapses to |+>.  Outcome 0 rotates the next qubit toward |0>; its new
angle feeds the next round.  The site succeeds if any round succeeds.

The tests check the closed forms below against a dense two-qubit
computation; the angle-to-radius map r = |sin(phi)| connects the protocol to
cylinder radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def percolation_verdict(p_site: float) -> bool:
    """Strictly above the site percolation threshold."""
    if not 0.0 <= p_site <= 1.0:
        raise ValueError("p_site must be a probability")
    return p_site > P_C
