"""Cluster circuits: a graph of CZ gates over per-vertex cylinder inputs,
with an adaptive measurement plan and a fixed measurement order.

Adaptivity is encoded as two dependency sets per vertex: odd outcome parity
over sign_deps negates the base azimuth, odd parity over shift_deps adds pi.
This covers standard byproduct propagation while keeping circuits fully
serializable.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from .geometry import XY_PLANE, Z_BASIS, CylinderExtremum, is_real


@dataclass(frozen=True)
class MeasurementRule:
    kind: str
    base_alpha: float = 0.0
    sign_deps: frozenset[int] = field(default_factory=frozenset)
    shift_deps: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in (Z_BASIS, XY_PLANE):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if not (is_real(self.base_alpha) and math.isfinite(self.base_alpha)):
            raise ValueError(f"invalid angle base_alpha={self.base_alpha!r}")
        for name in ("sign_deps", "shift_deps"):
            deps = frozenset(_index(d, name) for d in getattr(self, name))
            object.__setattr__(self, name, deps)


@dataclass(frozen=True)
class ClusterCircuit:
    n_qubits: int
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[CylinderExtremum, ...]
    plan: tuple[MeasurementRule, ...]
    order: tuple[int, ...]

    def __post_init__(self):
        n = _index(self.n_qubits, "n_qubits")
        if n < 1:
            raise ValueError("n_qubits must be >= 1")
        if len(self.inputs) != n or len(self.plan) != n:
            raise ValueError("inputs and plan must have one entry per qubit")
        edges = tuple((_index(u, "edge entry"), _index(v, "edge entry")) for u, v in self.edges)
        order = tuple(_index(v, "order entry") for v in self.order)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "order", order)
        seen = set()
        degrees = [0] * n
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-edge at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            degrees[u] += 1
            degrees[v] += 1
        # counted once: a scan of every edge per degree(v) call is quadratic
        object.__setattr__(self, "_degrees", tuple(degrees))
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of all vertices")
        pos = {v: i for i, v in enumerate(self.order)}
        for v, rule in enumerate(self.plan):
            for dep in rule.sign_deps | rule.shift_deps:
                if dep not in pos:
                    raise ValueError(f"vertex {v} depends on unknown vertex {dep}")
                if pos[dep] >= pos[v]:
                    raise ValueError(
                        f"vertex {v} depends on {dep}, which is not measured earlier"
                    )

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "edges": [list(e) for e in self.edges],
                "inputs": [
                    {"r": e.r, "theta": e.theta, "pole": e.pole} for e in self.inputs
                ],
                "plan": [
                    {
                        "kind": r.kind,
                        "base_alpha": r.base_alpha,
                        "sign_deps": sorted(r.sign_deps),
                        "shift_deps": sorted(r.shift_deps),
                    }
                    for r in self.plan
                ],
                "order": list(self.order),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterCircuit":
        """Parse circuit JSON; malformed content raises ValueError."""
        try:
            data = json.loads(text)
            return cls(
                n_qubits=data["n_qubits"],
                edges=tuple((u, v) for u, v in data["edges"]),
                inputs=tuple(
                    CylinderExtremum(d["r"], d["theta"], d["pole"]) for d in data["inputs"]
                ),
                plan=tuple(
                    MeasurementRule(
                        kind=d["kind"],
                        base_alpha=d.get("base_alpha", 0.0),
                        sign_deps=frozenset(d.get("sign_deps", ())),
                        shift_deps=frozenset(d.get("shift_deps", ())),
                    )
                    for d in data["plan"]
                ),
                order=tuple(data["order"]),
            )
        # RecursionError: nesting too deep to parse; OverflowError: an int past float
        except (KeyError, TypeError, RecursionError, OverflowError) as exc:
            raise ValueError(f"malformed circuit JSON: {type(exc).__name__}: {exc}") from exc


def _index(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def resolve_alpha(rule: MeasurementRule, outcomes: dict[int, int]) -> float:
    """Adaptively resolved azimuth given earlier outcomes."""
    alpha = rule.base_alpha
    if sum(outcomes[d] for d in rule.sign_deps) % 2:
        alpha = -alpha
    if sum(outcomes[d] for d in rule.shift_deps) % 2:
        alpha += math.pi
    return alpha
