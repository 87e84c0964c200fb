"""The three workloads of the cylsim benchmark: seeded inputs, operations, checks.

Every workload is a closed loop: one caller in this process runs one
operation at a time, and an operation uses at most 2 worker processes.  A
pass runs the workload's fixed operation list once, in order.

Inputs are made from the workload seed with the standard library only, so
the program receives nothing but circuit JSON files and CLI arguments.  The
program is driven only from outside: `cylsim.cli.main` for `sample`,
`compare` and `coarse`, and the public `coarse.find_negativity_witness` for
the 6x7 hunt, which the CLI does not expose.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

#: symmetric critical growth, root of 1 - 4/g^2 - 1/g^4 = 0
LAMBDA = math.sqrt(1.0 / (math.sqrt(5.0) - 2.0))

#: the sampler's default growth LAMBDA * (1 + 1e-3); radii sit at 90 % of each
#: vertex's simulability bound GROWTH**-degree, as in the acceptance fixtures
GROWTH = LAMBDA * (1.0 + 1e-3)

#: failure probability of each TV check (McDiarmid deviation term)
TV_DELTA = 1e-6


def chain(n: int):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)]


def grid(h: int, w: int):
    edges = []
    for i in range(h):
        for j in range(w):
            v = i * w + j
            if j + 1 < w:
                edges.append((v, v + 1))
            if i + 1 < h:
                edges.append((v, v + w))
    return h * w, edges


GRAPHS = {
    "chain2": chain(2),
    "cycle4": cycle(4),
    "grid2x3": grid(2, 3),
    "grid3x4": grid(3, 4),
    "chain10": chain(10),
    "chain11": chain(11),
    "chain12": chain(12),
}


def make_circuit(name: str, rng: random.Random) -> dict:
    """Adaptive circuit JSON on graph `name`: angles, poles and measurement
    azimuths drawn from rng, radii at 90 % of each vertex's bound."""
    n, edges = GRAPHS[name]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    inputs = [
        {
            "r": 0.9 * GROWTH ** -deg[v],
            "theta": rng.uniform(0.0, 2.0 * math.pi),
            "pole": rng.choice((1, -1)),
        }
        for v in range(n)
    ]
    plan = []
    for v in range(n):
        if v == n - 1:
            plan.append({"kind": "ZBasis"})
            continue
        plan.append(
            {
                "kind": "XYPlane",
                "base_alpha": rng.uniform(0.0, 2.0 * math.pi),
                "sign_deps": [v - 1] if v > 0 else [],
                "shift_deps": [0] if v > 1 else [],
            }
        )
    return {
        "n_qubits": n,
        "edges": [list(e) for e in edges],
        "inputs": inputs,
        "plan": plan,
        "order": list(range(n)),
    }


def tv_bound(shots: int, support: int, delta: float = TV_DELTA) -> float:
    """TV distance that an empirical table of `shots` draws from a
    distribution with `support` outcomes exceeds with probability <= delta.

    E[TV] <= 1/2 sum_i sqrt(p_i / N) <= 1/2 sqrt(K / N) by Cauchy-Schwarz, and
    moving one draw changes TV by at most 1/N, so McDiarmid adds
    sqrt(ln(1/delta) / (2N)).
    """
    return 0.5 * math.sqrt(support / shots) + math.sqrt(math.log(1.0 / delta) / (2.0 * shots))


def tv_distance(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def tv_failure(counts: dict[str, int], dist: dict[str, float], support: int) -> str | None:
    """Why a count table is too far from `dist` in TV distance, or None."""
    shots = sum(counts.values())
    tv = tv_distance({k: v / shots for k, v in counts.items()}, dist)
    limit = tv_bound(shots, support)
    return f"TV {tv:.4f} > bound {limit:.4f} at {shots} shots" if tv > limit else None


def read_counts(path: Path) -> dict[str, int]:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return {k: int(v) for k, v in (row.split(",") for row in rows)}


class OpFailed(RuntimeError):
    pass


@dataclass
class Op:
    """One operation of a pass; `input` names a circuit or a block."""

    kind: str
    input: str
    threads: int = 1
    shots: int = 0


@dataclass
class Record:
    op: Op
    pass_idx: int
    traced: bool
    wall: float = 0.0
    output: object = None
    failures: list[str] = field(default_factory=list)


def call_cli(cylsim, argv: list[str], out: Path) -> float:
    """Wall time of one cylsim.cli.main call writing to `out`; a nonzero exit
    raises OpFailed."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cylsim.cli.main([*argv, "--out", str(out)])
        wall = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    return wall


def call_seed(seed: int, pass_idx: int, name: str) -> int:
    return random.Random(f"{seed}/{pass_idx}/{name}").getrandbits(32)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tmp = workdir / "tmp"

    def make_inputs(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up_plan(self) -> list:
        """JSON-able warm-up calls, one small call per distinct input."""
        raise NotImplementedError

    def run_op(self, cylsim, op: Op, pass_idx: int) -> tuple[float, object]:
        raise NotImplementedError

    def check(self, cylsim, records: list[Record]) -> None:
        """Append a reason to each record whose output fails a check."""
        raise NotImplementedError

    def figures(self, passes: list[list[Record]]) -> dict:
        """This workload's own figures for the run record, from the records
        of each untraced pass: per-pass lists or single values."""
        raise NotImplementedError


def run_warm_up(cylsim, plan: list) -> None:
    for item in plan:
        if item[0] == "cli":
            call_cli(cylsim, item[1], Path(item[2]))
        elif item[0] == "block_value":
            block_value = getattr(cylsim.coarse, "block_value", None)
            if block_value is not None:
                _, h, w, mode = item
                b = cylsim.coarse.BlockSpec(h, w, mode)
                block_value(b, b.radii(0.05), [0.0] * b.n)


class CircuitWorkload(Workload):
    """Shared input handling for the workloads that take circuit JSON."""

    circuits: dict[str, int] = {}

    def __init__(self, seed: int, workdir: Path, circuits: dict[str, int] | None = None):
        super().__init__(seed, workdir)
        if circuits is not None:
            self.circuits = circuits
        self.paths = {c: workdir / f"{c}.json" for c in self.circuits}

    def make_inputs(self) -> None:
        super().make_inputs()
        rng = random.Random(self.seed)
        for c, path in self.paths.items():
            path.write_text(json.dumps(make_circuit(c, rng)), encoding="utf-8")

    def warm_up_plan(self) -> list:
        return [
            ["cli", ["sample", "--circuit", str(p), "--shots", "64", "--seed", "0",
                     "--threads", "1"], str(self.tmp / "warm.csv")]
            for p in self.paths.values()
        ]

    def reference(self, cylsim, name: str) -> tuple[dict[str, float], int, list[str]]:
        """Exact distribution of circuit `name`, its support size, and a
        failure reason if it does not sum to 1."""
        c = cylsim.circuits.ClusterCircuit.from_json(self.paths[name].read_text(encoding="utf-8"))
        dist = cylsim.oracle.exact_distribution(c)
        total = sum(dist.values())
        bad = [] if abs(total - 1.0) <= 1e-9 else [f"exact distribution sums to {total!r}"]
        return dist, sum(1 for v in dist.values() if v > 0.0), bad


class SampleLong(CircuitWorkload):
    name = "sample-long"
    why = ("CLI sample at --threads 1 and 2: the per-shot sampler does nearly all the work, "
           "oracle and coarse none, and the czdec LP runs only in set-up")
    #: shots per call, about 0.5 s of serial sampling each at the parent commit
    circuits = {"chain2": 12000, "cycle4": 8000, "grid2x3": 6000, "grid3x4": 3000}

    def ops(self) -> list[Op]:
        return [Op("sample", c, t, s) for c, s in self.circuits.items() for t in (1, 2)]

    def run_op(self, cylsim, op: Op, pass_idx: int):
        out = self.tmp / f"sample-t{op.threads}.csv"
        wall = call_cli(cylsim, [
            "sample", "--circuit", str(self.paths[op.input]), "--shots", str(op.shots),
            "--seed", str(call_seed(self.seed, pass_idx, op.input)),
            "--threads", str(op.threads),
        ], out)
        return wall, read_counts(out)

    def figures(self, passes: list[list[Record]]) -> dict:
        def rate(rs, t):
            mine = [r for r in rs if r.op.threads == t]
            return sum(r.op.shots for r in mine) / sum(r.wall for r in mine)

        return {"shots_per_s": [rate(rs, 1) for rs in passes],
                "shots_per_s_par": [rate(rs, 2) for rs in passes]}

    def check(self, cylsim, records: list[Record]) -> None:
        serial = {(r.pass_idx, r.op.input): r for r in records if r.op.threads == 1}
        for r in records:
            ref = serial.get((r.pass_idx, r.op.input))
            if r.op.threads != 1 and ref is not None and r.output != ref.output:
                r.failures.append("count table differs between --threads 1 and --threads 2")
        for c in self.circuits:
            dist, support, bad = self.reference(cylsim, c)
            pooled: dict[str, int] = {}
            for r in serial.values():
                if r.op.input != c or r.output is None:
                    continue
                bad_tv = tv_failure(r.output, dist, support)
                if bad_tv:
                    r.failures.append(bad_tv)
                for k, v in r.output.items():
                    pooled[k] = pooled.get(k, 0) + v
            if pooled:
                bad_tv = tv_failure(pooled, dist, support)
                if bad_tv:
                    bad.append(f"pooled over passes: {bad_tv}")
            for r in records:
                if r.op.input == c:
                    r.failures.extend(bad)


class CompareDense(CircuitWorkload):
    name = "compare-dense"
    why = ("CLI compare at --threads 1 on 10- to 12-qubit circuits with few shots: the dense "
           "oracle does most of each call, the sampler little")
    #: shots per call: few enough that the oracle dominates at the parent commit
    circuits = {"chain10": 2000, "chain11": 2000, "chain12": 2000, "grid3x4": 2000}

    def ops(self) -> list[Op]:
        return [Op("compare", c, 1, s) for c, s in self.circuits.items()]

    def run_op(self, cylsim, op: Op, pass_idx: int):
        out = self.tmp / "compare.json"
        wall = call_cli(cylsim, [
            "compare", "--circuit", str(self.paths[op.input]), "--shots", str(op.shots),
            "--seed", str(call_seed(self.seed, pass_idx, op.input)),
            "--threads", "1",
        ], out)
        return wall, json.loads(out.read_text(encoding="utf-8"))["tv"]

    def figures(self, passes: list[list[Record]]) -> dict:
        return {"compare_s": [sum(r.wall for r in rs) for rs in passes]}

    def check(self, cylsim, records: list[Record]) -> None:
        for c in self.circuits:
            _, support, bad = self.reference(cylsim, c)
            for r in records:
                if r.op.input != c:
                    continue
                r.failures.extend(bad)
                if r.output is not None and not r.output <= tv_bound(r.op.shots, support):
                    r.failures.append(
                        f"TV {r.output:.4f} > bound {tv_bound(r.op.shots, support):.4f}"
                    )


class CoarseBracket(Workload):
    name = "coarse-bracket"
    why = ("CLI coarse --mode lambda --grid 32 on blocks up to 3x4 plus the 6x7 witness hunt: "
           "only the coarse module works, on 3^n tensors and frontier contractions")
    blocks = ("2x2", "2x3", "2x4", "3x3", "3x4")
    #: the plain block and radii of the upper-bound witness criterion
    hunt_block = (6, 7)
    hunt_radii = (0.130, 0.136, 0.140, 0.145)
    hunt_limit = 0.145
    #: the 2x2 lambda-grown threshold estimate that the 2x2 bracket must contain
    known_2x2 = 0.0698

    def __init__(self, seed: int, workdir: Path, blocks=None, hunt_radii=None):
        super().__init__(seed, workdir)
        if blocks is not None:
            self.blocks = tuple(blocks)
        if hunt_radii is not None:
            self.hunt_radii = tuple(hunt_radii)
        self.hunt_seed = random.Random(seed).getrandbits(32)

    def ops(self) -> list[Op]:
        h, w = self.hunt_block
        return [Op("coarse", b) for b in self.blocks] + [Op("hunt", f"{h}x{w}")]

    def warm_up_plan(self) -> list:
        return [["block_value", *map(int, b.split("x")), "lambda"] for b in self.blocks]

    def run_op(self, cylsim, op: Op, pass_idx: int):
        if op.kind == "hunt":
            coarse = cylsim.coarse
            block = coarse.BlockSpec(*self.hunt_block, coarse.PLAIN)
            start = time.perf_counter()
            hit = coarse.find_negativity_witness(
                block, self.hunt_radii, restarts=2, seed=self.hunt_seed
            )
            wall = time.perf_counter() - start
            return wall, None if hit is None else hit[0]
        out = self.tmp / "coarse.json"
        wall = call_cli(cylsim, [
            "coarse", "--block", op.input, "--mode", "lambda", "--grid", "32",
        ], out)
        res = json.loads(out.read_text(encoding="utf-8"))
        return wall, (res["r_lower"], res["r_upper"], res["certified_grid"])

    def figures(self, passes: list[list[Record]]) -> dict:
        widths = [(r.output[1] - r.output[0]) / r.output[1]
                  for rs in passes for r in rs if r.op.kind == "coarse" and r.output is not None]
        return {"bracket_s": [sum(r.wall for r in rs) for rs in passes],
                "bracket_rel_width_max": max(widths, default=None)}

    def check(self, cylsim, records: list[Record]) -> None:
        first: dict[str, object] = {}
        for r in records:
            if r.output is None:
                if r.op.kind == "hunt" and not r.failures:
                    r.failures.append("no negativity witness found")
                continue
            if first.setdefault(r.op.input, r.output) != r.output:
                r.failures.append(f"output {r.output} differs from the first pass {first[r.op.input]}")
            if r.op.kind == "hunt":
                if r.output > self.hunt_limit:
                    r.failures.append(f"witness at r = {r.output} > {self.hunt_limit}")
                continue
            lower, upper, _ = r.output
            if not lower <= upper:
                r.failures.append(f"bracket [{lower}, {upper}] is empty")
            if r.op.input == "2x2" and not lower <= self.known_2x2 <= upper:
                r.failures.append(f"2x2 bracket [{lower}, {upper}] misses {self.known_2x2}")


WORKLOADS = {w.name: w for w in (SampleLong, CompareDense, CoarseBracket)}
