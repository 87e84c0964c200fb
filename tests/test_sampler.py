import dataclasses
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURE_GRAPHS, build_fixture, degree

import cylsim
from cylsim import sampler
from cylsim.circuits import ClusterCircuit, MeasurementRule, resolve_alpha
from cylsim.czdec import (
    LAMBDA,
    DecompositionError,
    StochasticRep,
    apply_branch,
    grid_rep,
    lp_feasibility,
    mixture_residual,
)
from cylsim.geometry import XY_PLANE, Z_BASIS, CylinderExtremum, Measurement, measure_prob, to_bloch
from cylsim.oracle import exact_distribution, normalize_counts, tv_distance
from cylsim.sampler import (
    BLOCK_SHOTS,
    MAX_UNIFORMS,
    TooManyShots,
    check_simulable,
    default_rep,
    rep_provenance,
    sample_parallel,
)


def xy_circuit(n, edges, radii, order=None, angles=None):
    return ClusterCircuit(
        n,
        edges,
        tuple(CylinderExtremum(r, 0.0, 1) for r in radii),
        tuple(MeasurementRule(XY_PLANE, a) for a in (angles or [0.0] * n)),
        tuple(order or range(n)),
    )


def test_circuit_validation():
    good = xy_circuit(2, ((0, 1),), [0.1, 0.1])
    assert good.degree(0) == 1
    with pytest.raises(ValueError):
        xy_circuit(2, ((0, 0),), [0.1, 0.1])
    with pytest.raises(ValueError):
        xy_circuit(2, ((0, 1), (1, 0)), [0.1, 0.1])
    with pytest.raises(ValueError):
        xy_circuit(2, ((0, 1),), [0.1, 0.1], order=(0, 0))
    with pytest.raises(ValueError):
        xy_circuit(2, ((0.0, 1.0),), [0.1, 0.1])
    with pytest.raises(ValueError):
        xy_circuit(2, ((0, 1),), [0.1, 0.1], order=(0.0, 1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            xy_circuit(2, ((0, 1),), [0.1, 0.1], angles=[0.0, bad])
    with pytest.raises(ValueError):
        # dependency on a later vertex
        ClusterCircuit(
            2,
            ((0, 1),),
            (CylinderExtremum(0.1, 0, 1),) * 2,
            (
                MeasurementRule(XY_PLANE, sign_deps=frozenset({1})),
                MeasurementRule(XY_PLANE),
            ),
            (0, 1),
        )


def test_circuit_json_round_trip():
    c = build_fixture("grid2x3", LAMBDA, adaptive=True)
    again = ClusterCircuit.from_json(c.to_json())
    assert again == c


def test_degree_matches_edge_count():
    cases = [build_fixture(name, LAMBDA, adaptive=True) for name in FIXTURE_GRAPHS]
    cases.append(xy_circuit(4, ((0, 1), (1, 2)), [0.1] * 4))  # vertex 3 is isolated
    rng = np.random.default_rng(4)
    for c in cases:
        for _ in range(3):
            edges = [tuple(rng.permutation(e)) for e in rng.permutation(c.edges)]
            c = dataclasses.replace(c, edges=tuple(edges))
            assert [c.degree(v) for v in range(c.n_qubits)] == [
                degree(c.n_qubits, c.edges, v) for v in range(c.n_qubits)
            ]
    assert c.degree(3) == 0


def test_resolve_alpha_parity():
    rule = MeasurementRule(
        XY_PLANE, base_alpha=0.7, sign_deps=frozenset({0, 1}), shift_deps=frozenset({2})
    )
    assert resolve_alpha(rule, {0: 0, 1: 0, 2: 0}) == pytest.approx(0.7)
    assert resolve_alpha(rule, {0: 1, 1: 0, 2: 0}) == pytest.approx(-0.7)
    assert resolve_alpha(rule, {0: 1, 1: 1, 2: 1}) == pytest.approx(0.7 + math.pi)


def test_check_simulable_examples():
    c = xy_circuit(4, ((0, 1), (1, 2), (2, 3), (3, 0)), [0.2] * 4)
    report = check_simulable(c, LAMBDA)
    assert report.simulable
    assert report.vertices[0].bound == pytest.approx(LAMBDA**-2)

    c = xy_circuit(5, ((0, 1), (0, 2), (0, 3), (0, 4)), [0.06, 0, 0, 0, 0])
    report = check_simulable(c, LAMBDA)
    assert not report.vertices[0].ok  # 0.06 > lambda^-4 ~ 0.0557
    assert not report.simulable

    c = xy_circuit(3, ((0, 1), (1, 2)), [0.0] * 3)
    assert check_simulable(c, LAMBDA).simulable


@pytest.mark.parametrize("excess,ok", [(0.0, True), (5e-13, False)])
def test_check_simulable_agrees_with_sampler_on_high_degree(rep, excess, ok):
    # degree 20: an absolute 5e-13 on the input radius is 1e-6 on the final one
    d = 20
    c = xy_circuit(d + 1, tuple((0, v) for v in range(1, d + 1)),
                   [rep.growth**-d + excess] + [0.0] * d)
    assert check_simulable(c, rep.growth).simulable is ok
    if ok:
        assert sum(sample_parallel(c, 10, seed=1, rep=rep).values()) == 10
    else:
        with pytest.raises(ValueError):
            sample_parallel(c, 10, seed=1, rep=rep)


def reference_shot(c, rep, u):
    """The per-shot object path the batched kernel replaced, fed one row of
    uniforms: (bitstring, closest distance of an XY draw to its p0)."""
    state = list(c.inputs)
    for i, (a, b) in enumerate(c.edges):
        acc = 0.0
        da, db = rep.branches[-1][1:]
        for p, xa, xb in rep.branches:
            acc += p
            if u[i] < acc:
                da, db = xa, xb
                break
        state[a], state[b] = apply_branch(state[a], state[b], rep.growth, da, db)
    assert all(e.r <= 1.0 + sampler.RADIUS_TOL for e in state)
    outcomes, gap = {}, math.inf
    base = len(c.edges)
    for k, v in enumerate(c.order):
        rule = c.plan[v]
        m = Measurement(rule.kind, resolve_alpha(rule, outcomes))
        p0 = min(1.0, max(0.0, measure_prob(to_bloch(state[v]), m, 0)))
        if rule.kind == XY_PLANE:
            gap = min(gap, abs(u[base + k] - p0))
        outcomes[v] = 0 if u[base + k] < p0 else 1
    return "".join(str(outcomes[v]) for v in range(c.n_qubits)), gap


def poles_zero_radius_z_circuit(growth):
    """Pole -1 and zero-radius inputs, Z and adaptive XY measurements, and a
    measurement order that is not the vertex order."""
    return ClusterCircuit(
        4,
        ((0, 1), (1, 2), (2, 3), (1, 3)),
        (
            CylinderExtremum(0.0, 0.3, -1),
            CylinderExtremum(0.9 * growth**-3, 1.1, -1),
            CylinderExtremum(0.9 * growth**-2, 2.0, 1),
            CylinderExtremum(0.0, 0.5, 1),
        ),
        (
            MeasurementRule(Z_BASIS),
            MeasurementRule(XY_PLANE, 0.7, sign_deps=frozenset({0})),
            MeasurementRule(XY_PLANE, 1.9, sign_deps=frozenset({1}), shift_deps=frozenset({3})),
            MeasurementRule(XY_PLANE, 0.2),
        ),
        (3, 0, 1, 2),
    )


def chain10_circuit(growth):
    """Ten qubits, so outcome rows pack into two bytes."""
    n = 10
    return ClusterCircuit(
        n,
        tuple((v, v + 1) for v in range(n - 1)),
        tuple(
            CylinderExtremum(0.9 * growth ** -(1 if v in (0, n - 1) else 2), 0.7 * v,
                             -1 if v % 4 == 1 else 1)
            for v in range(n)
        ),
        tuple(
            MeasurementRule(XY_PLANE, 0.2 * v, sign_deps=frozenset({v - 1} if v else ()))
            for v in range(n)
        ),
        tuple(range(n)),
    )


REFERENCE_CASES = [(name, adaptive) for name in FIXTURE_GRAPHS for adaptive in (False, True)]
EXTRA_CASES = {"poles-zero-z": poles_zero_radius_z_circuit, "chain10": chain10_circuit}


@pytest.mark.parametrize("case", REFERENCE_CASES + [(name, None) for name in EXTRA_CASES])
def test_kernel_matches_per_shot_reference(rep, case):
    name, adaptive = case
    if adaptive is None:
        c = EXTRA_CASES[name](rep.growth)
    else:
        c = build_fixture(name, rep.growth, adaptive=adaptive)
    shots, seed = 3000, 11
    kernel = sampler._ShotKernel(c, rep)
    u = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))).random(
        (shots, kernel.width)
    )
    bits = kernel.outcomes(u)
    got = ["".join(map(str, row)) for row in bits]
    ref = [reference_shot(c, rep, row) for row in u]
    checked = [(g, s) for g, (s, gap) in zip(got, ref) if gap > 1e-12]
    assert len(checked) >= shots - 2
    assert all(g == s for g, s in checked)
    # sample_parallel draws block 0 from the same stream
    assert sample_parallel(c, shots, seed, rep, 1) == Counter(got)


def test_deterministic_cases(rep):
    # zero radius, Z measurements: pole +1 gives 0 and pole -1 gives 1 with certainty
    c = ClusterCircuit(
        3,
        ((0, 1), (1, 2)),
        tuple(CylinderExtremum(0, 0.3 * v, 1 if v < 2 else -1) for v in range(3)),
        (MeasurementRule(Z_BASIS),) * 3,
        (0, 1, 2),
    )
    assert sample_parallel(c, 1000, seed=1, rep=rep) == {"001": 1000}


def test_tables_identical_across_threads_and_blocks(rep):
    c = build_fixture("cycle4", rep.growth, adaptive=True)
    shots = 5 * BLOCK_SHOTS // 2
    tables = [sample_parallel(c, shots, 8, rep, t) for t in (1, 2, 4)]
    assert tables[0] == tables[1] == tables[2]
    assert sum(tables[0].values()) == shots
    assert sample_parallel(c, shots, 8, rep=rep) == tables[0]


def test_pool_capped_by_blocks(rep, monkeypatch):
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sampler, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 4)
    c = build_fixture("chain2", rep.growth, adaptive=False)
    sample_parallel(c, 3 * BLOCK_SHOTS - 5, 2, rep, 64)
    sample_parallel(c, BLOCK_SHOTS, 2, rep, 8)
    assert sizes == [3]
    # the CPU count caps the pool too, and the table does not change
    table = sample_parallel(c, 3 * BLOCK_SHOTS, 2, rep, 3)
    for cpus, workers in ((2, 2), (1, None), (None, None)):
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert sample_parallel(c, 3 * BLOCK_SHOTS, 2, rep, 1000) == table
        assert sizes == ([] if workers is None else [workers])


@pytest.mark.parametrize(
    "shots,seed,threads", [(-5, 1, 1), (10, -1, 1), (10, 2**64, 1), (10, 1, 0)]
)
def test_sample_parallel_rejects_bad_arguments(rep, shots, seed, threads):
    c = build_fixture("chain2", rep.growth, adaptive=False)
    with pytest.raises(ValueError):
        sample_parallel(c, shots, seed, rep, threads)


def test_shot_cap_checked_before_any_work(rep, monkeypatch):
    # one vertex, no edges: one uniform a shot, so 2^34 shots sit exactly at the cap
    c = xy_circuit(1, (), [0.5])

    class KernelBuilt(Exception):
        pass

    def kernel(*_):
        raise KernelBuilt

    monkeypatch.setattr(sampler, "_ShotKernel", kernel)
    with pytest.raises(KernelBuilt):
        sample_parallel(c, MAX_UNIFORMS, 0, rep)
    for shots in (MAX_UNIFORMS + 1, 10**30):
        with pytest.raises(TooManyShots, match=f"^{shots} shots need {shots} uniform draws, "
                           f"more than the cap of {2**34}$"):
            sample_parallel(c, shots, 0, rep)


def test_stored_rep_passes_residual_check():
    f = 1.0 / (LAMBDA * (1.0 + sampler.DEFAULT_GROWTH_MARGIN))
    rep = grid_rep(f, sampler.REP_GRID_SIZE, sampler._DEFAULT_TABLE, tol=1e-6)
    residual = mixture_residual(f, rep.branches)
    assert residual <= 1e-6
    assert rep == default_rep()
    assert rep_provenance() == {
        "growth": rep.growth, "branches": 9, "residual": residual, "source": "stored",
    }
    for i in range(len(sampler._DEFAULT_TABLE)):
        table = list(sampler._DEFAULT_TABLE)
        w, j, k = table[i]
        table[i] = (w + 1e-3, j, k)
        with pytest.raises(DecompositionError):
            grid_rep(f, sampler.REP_GRID_SIZE, table, tol=1e-6)
    ok, _, _ = lp_feasibility(f, f, grid_size=sampler.REP_GRID_SIZE, tol=1e-6)
    assert ok


def test_nondefault_margin_solves_lp():
    prov = rep_provenance(2e-3)
    assert prov["source"] == "lp"
    assert prov["residual"] <= 1e-6
    assert prov["growth"] == pytest.approx(LAMBDA * 1.002)


def test_cli_path_does_not_load_lp_solver():
    code = (
        "import sys, cylsim.cli, cylsim.sampler; cylsim.sampler.default_rep(); "
        "print('scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cylsim.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_single_vertex_frequency(rep):
    c = xy_circuit(1, (), [0.5])
    counts = sample_parallel(c, 40000, seed=3, rep=rep)
    assert counts["0"] / 40000 == pytest.approx(0.75, abs=0.01)


def test_sample_empty_and_deterministic(rep):
    c = build_fixture("chain2", rep.growth, adaptive=False)
    assert sample_parallel(c, 0, seed=1, rep=rep) == {}
    a = sample_parallel(c, 2000, seed=7, rep=rep)
    b = sample_parallel(c, 2000, seed=7, rep=rep)
    assert a == b
    assert sum(a.values()) == 2000


def test_sample_parallel_matches_serial(rep):
    c = build_fixture("cycle4", rep.growth, adaptive=True)
    serial = sample_parallel(c, 3000, seed=5, rep=rep)
    parallel = sample_parallel(c, 3000, seed=5, rep=rep, threads=4)
    assert serial == parallel


def test_sample_rejects_nonsimulable(rep):
    c = xy_circuit(2, ((0, 1),), [0.9, 0.9])
    with pytest.raises(ValueError):
        sample_parallel(c, 10, seed=0, rep=rep)
    with pytest.raises(ValueError):
        sample_parallel(c, 10, 0, rep, 2)


def exact_branch_distribution(
    c: ClusterCircuit, rep: StochasticRep, max_edges: int = 3
) -> dict[str, float]:
    """Exact output distribution of the stochastic sampler (no Monte Carlo),
    a reference for the sampler itself.

    Enumerates every combination of decomposition branches across edges and
    every outcome history; exponential in the edge count, so capped small.
    """
    if len(c.edges) > max_edges:
        raise ValueError(f"exact enumeration capped at {max_edges} edges")
    dist: dict[str, float] = {}
    for combo in itertools.product(rep.branches, repeat=len(c.edges)):
        w = math.prod(b[0] for b in combo)
        state = list(c.inputs)
        for (a, b), (_, da, db) in zip(c.edges, combo):
            state[a], state[b] = apply_branch(state[a], state[b], rep.growth, da, db)
        _accumulate_outcomes(c, state, w, dist)
    return dist


def _accumulate_outcomes(
    c: ClusterCircuit,
    state: list,
    weight: float,
    dist: dict[str, float],
) -> None:
    stack = [(0, weight, {})]
    while stack:
        k, w, outcomes = stack.pop()
        if k == c.n_qubits:
            s = "".join(str(outcomes[v]) for v in range(c.n_qubits))
            dist[s] = dist.get(s, 0.0) + w
            continue
        v = c.order[k]
        rule = c.plan[v]
        m = Measurement(rule.kind, resolve_alpha(rule, outcomes))
        p0 = measure_prob(to_bloch(state[v]), m, 0)
        for outcome, pv in ((0, p0), (1, 1.0 - p0)):
            if abs(pv) < 1e-15:
                continue
            nxt = dict(outcomes)
            nxt[v] = outcome
            stack.append((k + 1, w * pv, nxt))


def test_edge_order_invariance(rep):
    n, edges = 3, ((0, 1), (1, 2))
    radii = [0.9 * rep.growth ** -1, 0.9 * rep.growth ** -2, 0.9 * rep.growth ** -1]
    base = None
    for perm in itertools.permutations(edges):
        c = xy_circuit(n, perm, radii, angles=[0.2, 1.0, 2.2])
        dist = exact_branch_distribution(c, rep)
        if base is None:
            base = dist
        else:
            assert tv_distance(base, dist) < 1e-10


def test_branch_distribution_matches_oracle(rep):
    c = build_fixture("chain2", rep.growth, adaptive=True)
    assert tv_distance(exact_branch_distribution(c, rep), exact_distribution(c)) < 1e-10


@pytest.mark.parametrize("adaptive", [False, True])
def test_fixture_tv_small_shots(rep, adaptive):
    c = build_fixture("cycle4", rep.growth, adaptive=adaptive)
    counts = sample_parallel(c, 20000, seed=9, rep=rep)
    tv = tv_distance(normalize_counts(counts), exact_distribution(c))
    assert tv < 0.03
