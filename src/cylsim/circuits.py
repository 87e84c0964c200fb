"""Cluster circuits: a graph of CZ gates over per-vertex cylinder inputs,
with an adaptive measurement plan and a fixed measurement order.

Adaptivity is encoded as two dependency sets per vertex: odd outcome parity
over sign_deps negates the base azimuth, odd parity over shift_deps adds pi.
This covers standard byproduct propagation while keeping circuits fully
serializable.  MeasurementRule.azimuths is the one statement of that rule,
which the sampler and the dense oracle both read; pole_normal_form, built
once a circuit as ClusterCircuit.normal_form, is the one statement of the
pole rules: the equivalent circuit of the XY-measured vertices, every input
at pole +1, which both of them run.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

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

    def azimuths(self, bits: np.ndarray) -> np.ndarray:
        """The float azimuth of each row of earlier outcome bits (rows, n):
        base_alpha times 1 - 2 (parity over sign_deps), plus pi times the
        parity over shift_deps, equal to negating and adding pi in turn."""
        alpha = np.full(len(bits), self.base_alpha, dtype=float)
        if self.sign_deps:
            alpha *= 1.0 - 2.0 * np.bitwise_xor.reduce(bits[:, list(self.sign_deps)], axis=1)
        if self.shift_deps:
            alpha += math.pi * np.bitwise_xor.reduce(bits[:, list(self.shift_deps)], axis=1)
        return alpha


@dataclass(frozen=True)
class ClusterCircuit:
    n_qubits: int
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[CylinderExtremum, ...]
    plan: tuple[MeasurementRule, ...]
    order: tuple[int, ...]

    def __post_init__(self):
        n = _index(self.n_qubits, "n_qubits")  # 0 in the normal form of an all-Z circuit
        if n < 0:
            raise ValueError("n_qubits must be >= 0")
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

    @functools.cached_property
    def normal_form(self) -> PoleNormalForm:
        """pole_normal_form(self), built on first use and kept."""
        return pole_normal_form(self)

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
            c = cls(
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
        if c.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        return c


@dataclass(frozen=True)
class PoleNormalForm:
    """pole_normal_form(c): `circuit`, whose vertex i is c's vertex kept[i],
    and bits, the fixed bit of each vertex of c (0 where kept)."""

    circuit: ClusterCircuit
    kept: tuple[int, ...]
    bits: np.ndarray

    def lift(self, bits: np.ndarray) -> np.ndarray:
        """Outcome rows of the normal form, (rows, len(kept)), as rows of n bits."""
        out = np.repeat(self.bits[None, :], len(bits), axis=0)
        out[:, list(self.kept)] = bits
        return out


def pole_normal_form(c: ClusterCircuit) -> PoleNormalForm:
    """The circuit of c's XY-measured vertices, every input at pole +1, whose
    outcomes, lifted, have c's distribution exactly.

    A Z-measured vertex is dropped: CZ commutes with its measurement, whose
    outcome is its pole bit, 1 for pole -1, which acts on each neighbour as Z.
    That bit folds into every rule that reads it: a sign dep negates the
    base azimuth, a shift dep adds pi to it (pi s = pi mod 2 pi for s = +-1).
    A kept pole -1 input is X (pole +1 input at -theta) X: each X crosses a
    CZ as Z on the neighbour and turns the measurement at alpha into the one
    at -alpha, and -(base s + pi t) = (-base) s + pi t mod 2 pi.  So every
    pole -1 input adds pi to each neighbour's input angle."""
    n = c.n_qubits
    kept = tuple(v for v in range(n) if c.plan[v].kind == XY_PLANE)
    index = {v: i for i, v in enumerate(kept)}
    south = [e.pole < 0 for e in c.inputs]
    bits = np.array([south[v] and v not in index for v in range(n)], dtype=np.uint8)
    flips = [0] * n
    for a, b in c.edges:
        flips[a] += south[b]
        flips[b] += south[a]

    def renamed(deps):
        return frozenset(index[d] for d in deps if d in index)

    inputs, plan = [], []
    for v in kept:
        e, rule, sign = c.inputs[v], c.plan[v], -1 if south[v] else 1
        inputs.append(CylinderExtremum(e.r, sign * e.theta + math.pi * (flips[v] % 2), 1))
        deps = (rule.sign_deps, rule.shift_deps)
        flip, shift = (int(bits[list(d)].sum()) % 2 for d in deps)
        base = sign * ((1 - 2 * flip) * rule.base_alpha + math.pi * shift)
        plan.append(MeasurementRule(XY_PLANE, base, *map(renamed, deps)))
    edges = tuple((index[a], index[b]) for a, b in c.edges if a in index and b in index)
    order = tuple(index[v] for v in c.order if v in index)
    circuit = ClusterCircuit(len(kept), edges, tuple(inputs), tuple(plan), order)
    return PoleNormalForm(circuit, kept, bits)


def _index(x, what: str) -> int:
    if type(x) is int:  # the common case, without the abstract-class check
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)

