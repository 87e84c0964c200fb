import dataclasses
import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    PAULI, FIXTURE_GRAPHS, build_fixture, pauli_coefficients, reference_window_distribution,
    resolve_alpha,
)

from cylsim import oracle
from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.czdec import LAMBDA, cz_pauli_output
from cylsim.geometry import XY_PLANE, Z_BASIS, CylinderExtremum, to_bloch
from cylsim.oracle import (
    DENSE_CAP,
    dense_output,
    exact_distribution,
    extremum_matrix,
    marginal_invariance_check,
    normalize_counts,
    partial_trace_keep,
    tv_distance,
)


def plus_state_circuit():
    return ClusterCircuit(
        2,
        ((0, 1),),
        (CylinderExtremum(1, 0, 1), CylinderExtremum(1, 0, 1)),
        (MeasurementRule(XY_PLANE),) * 2,
        (0, 1),
    )


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 1.7])
@pytest.mark.parametrize("theta", [0.0, 0.5 * math.pi, 2.1, -0.4])
@pytest.mark.parametrize("pole", [1, -1])
def test_extremum_matrix_is_the_pauli_sum(r, theta, pole):
    e = CylinderExtremum(r, theta, pole)
    op = to_bloch(e)
    expect = 0.5 * (PAULI[0] + op.x * PAULI[1] + op.y * PAULI[2] + op.z * PAULI[3])
    assert np.array_equal(extremum_matrix(e), expect)


def test_dense_output_no_edges_is_product():
    c = ClusterCircuit(
        2,
        (),
        (CylinderExtremum(0.4, 1.0, 1), CylinderExtremum(0.2, 2.0, -1)),
        (MeasurementRule(Z_BASIS),) * 2,
        (0, 1),
    )
    rho = dense_output(c)
    expect = np.kron(extremum_matrix(c.inputs[0]), extremum_matrix(c.inputs[1]))
    assert np.max(np.abs(rho - expect)) < 1e-15


def test_dense_output_single_edge_reference():
    rho = dense_output(plus_state_circuit())
    site = np.array([[1.0, 0.5], [0.5, 0.0]])  # (I + X + Z)/2
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    expect = cz @ np.kron(site, site) @ cz
    assert np.max(np.abs(rho - expect)) < 1e-14
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14


def test_dense_output_matches_pauli_formula_grid():
    worst = 0.0
    for rA in np.linspace(0, 1, 5):
        for rB in np.linspace(0, 1, 5):
            c = ClusterCircuit(
                2,
                ((0, 1),),
                (CylinderExtremum(rA, 0, 1), CylinderExtremum(rB, 0, 1)),
                (MeasurementRule(XY_PLANE),) * 2,
                (0, 1),
            )
            coeffs = pauli_coefficients(dense_output(c), 2)
            worst = max(worst, np.max(np.abs(coeffs - cz_pauli_output(rA, rB))))
    assert worst < 1e-12


def test_dense_cap():
    c = ClusterCircuit(
        DENSE_CAP + 1,
        (),
        (CylinderExtremum(0, 0, 1),) * (DENSE_CAP + 1),
        (MeasurementRule(XY_PLANE),) * (DENSE_CAP + 1),
        tuple(range(DENSE_CAP + 1)),
    )
    for oracle_fn in (dense_output, exact_distribution):
        with pytest.raises(oracle.DenseTooLarge, match="^dense oracle capped at 14 qubits$"):
            oracle_fn(c)
    # one vertex Z-measured: exact_distribution holds the 14 others, while
    # dense_output holds all 15
    c = dataclasses.replace(c, plan=(MeasurementRule(Z_BASIS),) + c.plan[1:])
    assert len(exact_distribution(c)) == 2**DENSE_CAP
    with pytest.raises(oracle.DenseTooLarge, match="^dense oracle capped at 14 qubits$"):
        dense_output(c)


def _complete(n):
    """n qubits, every pair joined: the largest sign table dense_output makes."""
    return ClusterCircuit(
        n, tuple(itertools.combinations(range(n), 2)),
        tuple(CylinderExtremum(0.3, 0.4 * v, 1 - 2 * (v % 2)) for v in range(n)),
        (MeasurementRule(Z_BASIS),) * n, tuple(range(n)),
    )


@pytest.mark.parametrize("n", range(1, 11))
def test_dense_output_peak_bounds_the_traced_peak(n):
    c = _complete(n)
    tracemalloc.start()
    try:
        dense_output(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the figure dense_output is admitted at
    assert peak <= 20 * 4**n + 2**19


def test_dense_oracles_refuse_by_their_own_cost(monkeypatch):
    # five qubits' operator is admitted at its own figure, 2^19 + 20 4^5
    # bytes, and refused a byte below it, where exact_distribution's smaller
    # peak still fits
    c = _complete(5)
    need = 20 * 4**5 + 2**19
    assert oracle.dense_peak(c) < need
    monkeypatch.setattr(oracle, "_available_memory", lambda: need)
    dense_output(c)
    monkeypatch.setattr(oracle, "_available_memory", lambda: need - 1)
    with pytest.raises(oracle.DenseTooLarge, match=re.escape(f"about {need:.3g} bytes at 5")):
        dense_output(c)
    exact_distribution(c)
    monkeypatch.setattr(oracle, "_available_memory", lambda: int(oracle.dense_peak(c)) - 1)
    with pytest.raises(oracle.DenseTooLarge):
        exact_distribution(c)


def test_exact_distribution_diagonal_product():
    c = ClusterCircuit(
        2,
        ((0, 1),),
        (CylinderExtremum(0, 0, 1), CylinderExtremum(0, 0, -1)),
        (MeasurementRule(Z_BASIS),) * 2,
        (0, 1),
    )
    dist = exact_distribution(c)
    assert dist == {"01": pytest.approx(1.0)}


@pytest.mark.parametrize("name", ["chain2", "cycle4", "grid2x3"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_exact_distribution_sums_to_one(name, adaptive):
    c = build_fixture(name, LAMBDA, adaptive=adaptive)
    dist = exact_distribution(c)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    # inputs below the per-vertex bounds: a genuine probability measure
    assert min(dist.values()) >= -1e-10


def test_distribution_negative_for_non_dual_inputs():
    c = ClusterCircuit(
        2,
        ((0, 1),),
        (CylinderExtremum(1.0, 0, 1), CylinderExtremum(1.0, 0.5, 1)),
        (MeasurementRule(XY_PLANE, 0.4), MeasurementRule(XY_PLANE, 1.1)),
        (0, 1),
    )
    dist = exact_distribution(c)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    assert min(dist.values()) < 0  # quasi-distribution reported as-is


def test_tv_distance():
    p = {"00": 0.5, "01": 0.5}
    assert tv_distance(p, p) == 0
    assert tv_distance({"00": 1.0}, {"11": 1.0}) == 1
    assert tv_distance({"0": 0.6, "1": 0.4}, {"0": 0.5, "1": 0.5}) == pytest.approx(0.1)


def test_normalize_counts():
    assert normalize_counts({}) == {}
    assert normalize_counts({"0": 3, "1": 1}) == {"0": 0.75, "1": 0.25}


def test_partial_trace_keep():
    rho = dense_output(plus_state_circuit())
    marg = partial_trace_keep(rho, 2, [0])
    assert np.trace(marg) == pytest.approx(1.0)
    # independent einsum reference
    expect = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    assert np.max(np.abs(marg - expect)) < 1e-14


def make_region_circuit(n, edges, radii=None):
    radii = radii or [0.7] * n
    return ClusterCircuit(
        n,
        edges,
        tuple(CylinderExtremum(radii[v], 0.3 * v + 0.1, 1) for v in range(n)),
        (MeasurementRule(XY_PLANE),) * n,
        tuple(range(n)),
    )


def test_marginal_invariance_single_edge():
    c = make_region_circuit(2, ((0, 1),))
    assert marginal_invariance_check(c, {0}) < 1e-12


def test_marginal_invariance_two_cross_edges():
    c = make_region_circuit(4, ((0, 1), (2, 3), (0, 2), (1, 3)))
    assert marginal_invariance_check(c, {0, 1}) < 1e-12


def test_marginal_changes_for_interior_inputs():
    """Inputs with |z| < 1 sit outside the invariance hypothesis: applying a
    cross CZ then does change the partner's marginal."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    I2 = np.eye(2, dtype=complex)
    site = 0.5 * (I2 + 0.7 * X)  # z = 0, not a rim extremum
    rho = np.kron(site, site)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    marg_with = partial_trace_keep(cz @ rho @ cz, 2, [0])
    marg_without = partial_trace_keep(rho, 2, [0])
    assert np.max(np.abs(marg_with - marg_without)) > 0.1


def reference_cz_signs(n, edges):
    """(-1)^(s_u s_v) multiplied in one edge at a time over (2,)*n."""
    signs = np.ones((2,) * n)
    for u, v in edges:
        bits_u = np.arange(2).reshape([2 if q == u else 1 for q in range(n)])
        bits_v = np.arange(2).reshape([2 if q == v else 1 for q in range(n)])
        signs = signs * np.where(bits_u * bits_v == 1, -1.0, 1.0)
    return signs


def reference_dense_output(c):
    """The operator built by np.kron, its CZ signs multiplied in one edge at a
    time and applied through np.outer."""
    rho = extremum_matrix(c.inputs[0])
    for v in range(1, c.n_qubits):
        rho = np.kron(rho, extremum_matrix(c.inputs[v]))
    s = reference_cz_signs(c.n_qubits, c.edges).ravel()
    return rho * np.outer(s, s)


def _outcome_vector(kind, alpha, outcome):
    if kind == XY_PLANE:
        sign = 1.0 if outcome == 0 else -1.0
        return np.array([1.0, sign * np.exp(1j * alpha)]) / math.sqrt(2.0)
    return np.array([1.0, 0.0]) if outcome == 0 else np.array([0.0, 1.0])


def _full_trace(t, m):
    if m == 0:
        return float(np.real(t))
    return float(np.real(np.trace(t.reshape(2**m, 2**m))))


def reference_distribution(c, prune=1e-14):
    """Depth-first walk of the outcome tree, one branch and two tensordots a
    node, azimuths from resolve_alpha: the reference for exact_distribution."""
    n = c.n_qubits
    dist = {}
    stack = [(0, list(range(n)), reference_dense_output(c).reshape((2,) * (2 * n)), {})]
    while stack:
        k, remaining, t, outcomes = stack.pop()
        if k == n:
            s = "".join(str(outcomes[v]) for v in range(n))
            dist[s] = dist.get(s, 0.0) + float(np.real(t))
            continue
        v = c.order[k]
        rule = c.plan[v]
        alpha = resolve_alpha(rule, outcomes)
        i = remaining.index(v)
        m = len(remaining)
        for outcome in (0, 1):
            vec = _outcome_vector(rule.kind, alpha, outcome)
            a = np.tensordot(t, vec.conj(), axes=([i], [0]))
            b = np.tensordot(a, vec, axes=([m - 1 + i], [0]))
            if abs(_full_trace(b, m - 1)) < prune:
                continue
            nxt = dict(outcomes)
            nxt[v] = outcome
            stack.append((k + 1, remaining[:i] + remaining[i + 1 :], b, nxt))
    return dist


def _scrambled_grid():
    """grid2x3 measured in the order 4 1 5 0 3 2: a Z-basis vertex mid-order,
    sign and shift dependencies on either side of it."""
    def xy(a, sign=(), shift=()):
        return MeasurementRule(XY_PLANE, a, frozenset(sign), frozenset(shift))

    plan = {4: xy(0.7), 1: xy(1.3, shift=[4]), 5: xy(2.1, [1], [4]), 0: MeasurementRule(Z_BASIS),
            3: xy(-0.4, [4, 0], [1]), 2: xy(2.9, [5], [0, 3])}
    base = build_fixture("grid2x3", LAMBDA, adaptive=False)
    return dataclasses.replace(base, plan=tuple(plan[v] for v in range(6)), order=(4, 1, 5, 0, 3, 2))


def _all_south(name):
    """An adaptive fixture with every input on its pole -1 rim."""
    c = build_fixture(name, LAMBDA, adaptive=True)
    return dataclasses.replace(c, inputs=tuple(dataclasses.replace(e, pole=-1) for e in c.inputs))


def _quasi():
    """Inputs past the per-vertex bounds: a measure with negative values."""
    c = build_fixture("cycle4", LAMBDA, adaptive=True)
    return dataclasses.replace(c, inputs=tuple(dataclasses.replace(e, r=1.0) for e in c.inputs))


def _pruned():
    """Vertex 2 has r = 1 at its measured azimuth, so outcome 1 weighs (about)
    nothing, and the Z-basis vertex 0 sits on its pole: both prune a branch."""
    return ClusterCircuit(
        3,
        ((0, 1),),
        (CylinderExtremum(0.4, 0.3, 1), CylinderExtremum(0.3, 1.1, -1),
         CylinderExtremum(1.0, 0.8, 1)),
        (MeasurementRule(Z_BASIS), MeasurementRule(XY_PLANE, 0.5, frozenset({0})),
         MeasurementRule(XY_PLANE, 0.8)),
        (0, 2, 1),
    )


def _middle_first():
    """grid2x3 measured from its degree-3 middle vertex 1, every input a pole
    -1 quasi-state (r = 1): the folded first measurement sees three CZ
    neighbours, on both sides of it in index order."""
    def xy(a, sign=(), shift=()):
        return MeasurementRule(XY_PLANE, a, frozenset(sign), frozenset(shift))

    plan = {1: xy(0.6), 4: xy(1.9, [1]), 0: xy(-0.8, [4], [1]), 5: MeasurementRule(Z_BASIS),
            2: xy(2.4, [0], [1, 4]), 3: xy(0.2, [2, 5])}
    base = build_fixture("grid2x3", LAMBDA, adaptive=False)
    return dataclasses.replace(
        base,
        inputs=tuple(dataclasses.replace(e, r=1.0, pole=-1) for e in base.inputs),
        plan=tuple(plan[v] for v in range(6)),
        order=(1, 4, 0, 5, 2, 3),
    )


def _z_first():
    """grid2x3 measured from vertex 4 in the Z basis; its neighbours 1, 3 and 5
    lie on both sides of it in index order."""
    base = build_fixture("grid2x3", LAMBDA, adaptive=False)
    plan = list(base.plan)
    plan[4] = MeasurementRule(Z_BASIS)
    plan[3] = MeasurementRule(XY_PLANE, 1.2, frozenset({4}))
    return dataclasses.replace(base, plan=tuple(plan), order=(4, 3, 0, 5, 1, 2))


def _star_centre_first():
    """A 6-vertex star measured from its centre 0: every leaf joins the window
    at the first step, whose folded measurement masks all of them; the leaves
    then read the centre's outcome, and the last one is Z-basis."""
    def xy(a, sign=(), shift=()):
        return MeasurementRule(XY_PLANE, a, frozenset(sign), frozenset(shift))

    return ClusterCircuit(
        6,
        tuple((0, v) for v in range(1, 6)),
        tuple(CylinderExtremum(0.9 * LAMBDA ** -(5 if v == 0 else 1), 0.4 + 0.9 * v,
                               1 if v % 3 else -1) for v in range(6)),
        (xy(0.7), xy(1.1, [0]), xy(-0.6, [0], [1]), xy(2.3, [2], [0]), xy(0.2, shift=[0, 3]),
         MeasurementRule(Z_BASIS)),
        (0, 1, 2, 3, 4, 5),
    )


ORACLE_CASES = {
    **{f"{name}-{'adaptive' if a else 'plain'}": (lambda name=name, a=a: build_fixture(name, LAMBDA, a))
       for name in sorted(FIXTURE_GRAPHS) for a in (False, True)},
    "scrambled-grid2x3": _scrambled_grid,
    "south-cycle4": lambda: _all_south("cycle4"),
    "south-grid2x3": lambda: _all_south("grid2x3"),
    "quasi-cycle4": _quasi,
    "quasi-chain2": lambda: ClusterCircuit(
        2, ((0, 1),), (CylinderExtremum(1.0, 0, 1), CylinderExtremum(1.0, 0.5, 1)),
        (MeasurementRule(XY_PLANE, 0.4), MeasurementRule(XY_PLANE, 1.1)), (0, 1)),
    "pruned": _pruned,
    "middle-first-quasi-grid2x3": _middle_first,
    "z-first-grid2x3": _z_first,
    "star-centre-first": _star_centre_first,
    "one-xy": lambda: ClusterCircuit(
        1, (), (CylinderExtremum(0.6, 1.0, -1),), (MeasurementRule(XY_PLANE, 0.3),), (0,)),
    "one-z": lambda: ClusterCircuit(
        1, (), (CylinderExtremum(0.6, 1.0, -1),), (MeasurementRule(Z_BASIS),), (0,)),
}


def assert_matches_reference(c):
    """exact_distribution(c) against the depth-first walk of the full circuit,
    unpruned and pruned.  The oracle measures c's pole normal form, which has
    no branch for the other outcome of a Z-measured vertex: the reference
    lists such an outcome, at mass exactly 0, when nothing prunes it."""
    for prune in (1e-14, 0.0):
        got, ref = exact_distribution(c, prune), reference_distribution(c, prune)
        assert set(got) <= set(ref)
        assert all(ref[k] == 0.0 for k in set(ref) - set(got))
        assert max(abs(got.get(k, 0.0) - ref[k]) for k in ref) <= 1e-12
    return got


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_exact_distribution_matches_depth_first_reference(case):
    got = assert_matches_reference(ORACLE_CASES[case]())
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


@st.composite
def small_circuits(draw, max_n=6):
    """Circuits of at most max_n qubits: random graphs (isolated vertices
    included), random orders, Z and adaptive XY rules, pole -1 inputs and
    radii past the unit cylinder."""
    n = draw(st.integers(1, max_n))
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans()))
    order = tuple(draw(st.permutations(range(n))))
    angles = st.floats(-math.pi, math.pi)
    plan = []
    for v in range(n):
        earlier = order[: order.index(v)]
        deps = st.sets(st.sampled_from(earlier)) if earlier else st.just(set())
        if draw(st.booleans()):
            plan.append(MeasurementRule(Z_BASIS))
        else:
            plan.append(MeasurementRule(XY_PLANE, draw(angles), frozenset(draw(deps)),
                                        frozenset(draw(deps))))
    inputs = tuple(
        CylinderExtremum(draw(st.floats(0.0, 1.5)), draw(angles), draw(st.sampled_from((1, -1))))
        for _ in range(n)
    )
    return ClusterCircuit(n, edges, inputs, tuple(plan), order)


@settings(max_examples=150, deadline=None)
@given(small_circuits())
def test_window_matches_depth_first_reference(c):
    assert_matches_reference(c)


@settings(max_examples=40, deadline=None)
@given(small_circuits(max_n=9))
def test_dense_peak_bounds_the_traced_peak(c):
    tracemalloc.start()
    try:
        exact_distribution(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= oracle.dense_peak(c)


def test_reference_cases_cover_pruning_and_negative_values():
    pruned = exact_distribution(_pruned())
    assert sorted(pruned) == ["000", "010"]
    # unpruned, both outcomes of the two XY-plane vertices; the Z-measured
    # vertex 0 has one branch, at its pole bit
    assert len(exact_distribution(_pruned(), prune=0.0)) == 4
    assert min(exact_distribution(_quasi()).values()) < 0


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_dense_output_equals_kron_reference(case):
    c = ORACLE_CASES[case]()
    assert np.array_equal(dense_output(c), reference_dense_output(c))
    cut = dataclasses.replace(c, edges=c.edges[: len(c.edges) // 2])
    assert np.array_equal(dense_output(cut), reference_dense_output(cut))


def test_azimuths_are_resolve_alpha_bit_for_bit():
    # every 5-bit row, and rows of one bit and of 14: the arithmetic form
    # equals the scalar rule, an integer base too
    rng = np.random.default_rng(7)
    rows = {
        1: np.array([[0], [1]], dtype=np.uint8),
        5: np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8),
        14: rng.integers(0, 2, size=(64, 14), dtype=np.uint8),
    }
    deps = {
        1: [((), ()), ((0,), ()), ((), (0,)), ((0,), (0,))],
        5: [((), ()), ((0,), ()), ((), (4,)), ((1, 3), (0, 2, 4)), ((4,), (4,))],
        14: [((), ()), ((13,), ()), ((), (0, 13)), ((0, 5, 13), tuple(range(0, 14, 3)))],
    }
    for n, bits in rows.items():
        for base in (0.0, 0.3, -2.7, 5.9, 1e-300, 123.456, 2):
            rules = [MeasurementRule(XY_PLANE, base)]
            rules += [MeasurementRule(XY_PLANE, base, frozenset(a), frozenset(b)) for a, b in deps[n]]
            for rule in rules:
                got = rule.azimuths(bits)
                want = [resolve_alpha(rule, dict(enumerate(row.tolist()))) for row in bits]
                assert got.dtype == np.float64 and got.tolist() == want


def test_exact_distribution_takes_an_integer_base_azimuth():
    # JSON gives an int for "base_alpha": 1, which a shift by pi must not
    # truncate: the oracle reads it as 1.0
    def circuit(base):
        return ClusterCircuit(
            2, ((0, 1),), (CylinderExtremum(0.1, 0.0, 1), CylinderExtremum(0.1, 0.5, 1)),
            (MeasurementRule(XY_PLANE), MeasurementRule(XY_PLANE, base, shift_deps=frozenset({0}))),
            (0, 1),
        )
    by_int = ClusterCircuit.from_json(circuit(1.0).to_json().replace('"base_alpha": 1.0', '"base_alpha": 1'))
    assert type(by_int.plan[1].base_alpha) is int
    assert dict(exact_distribution(by_int)) == dict(exact_distribution(circuit(1.0)))


DATA = Path(__file__).parent / "data"


def _benchmark_circuit(name: str, seed: int) -> ClusterCircuit:
    """The compare-dense benchmark's circuit on chain10, chain11, chain12 or
    grid3x4 for a seed: angles, poles and azimuths drawn from
    random.Random(seed) in the benchmark's order, radii at 90 % of each
    vertex's bound at the sampler's default growth."""
    rng = random.Random(seed)
    if name.startswith("chain"):
        n = int(name[5:])
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        h, w = map(int, name[4:].split("x"))
        n, edges = h * w, []
        for i in range(h):
            for j in range(w):
                if j + 1 < w:
                    edges.append((i * w + j, i * w + j + 1))
                if i + 1 < h:
                    edges.append((i * w + j, i * w + j + w))
    growth = LAMBDA * (1.0 + 1e-3)
    deg = [sum(v in e for e in edges) for v in range(n)]
    inputs = tuple(
        CylinderExtremum(0.9 * growth ** -deg[v], rng.uniform(0.0, 2.0 * math.pi), rng.choice((1, -1)))
        for v in range(n)
    )
    plan = tuple(
        MeasurementRule(Z_BASIS) if v == n - 1 else
        MeasurementRule(XY_PLANE, rng.uniform(0.0, 2.0 * math.pi),
                        frozenset({v - 1} if v > 0 else ()), frozenset({0} if v > 1 else ()))
        for v in range(n)
    )
    return ClusterCircuit(n, tuple(edges), inputs, plan, tuple(range(n)))


WIDE_CASES = {
    **{f"data-{name}": (lambda name=name: ClusterCircuit.from_json((DATA / f"{name}.json").read_text()))
       for name in ("grid3x4", "chain14")},
    **{f"{name}-seed{seed}": (lambda name=name, seed=seed: _benchmark_circuit(name, seed))
       for name in ("chain10", "chain11", "chain12", "grid3x4") for seed in range(3)},
}


@pytest.mark.parametrize("case", sorted(WIDE_CASES))
def test_three_codes_match_the_full_window_operators(case):
    # the depth-first reference is too large at 12 to 14 qubits
    c = WIDE_CASES[case]()
    got, ref = exact_distribution(c), reference_window_distribution(c)
    assert np.array_equal(got.rows, ref.rows)
    assert np.count_nonzero(got.mass > 0) == np.count_nonzero(ref.mass > 0)
    assert np.max(np.abs(got.mass - ref.mass)) <= 1e-15


def test_grid3x4_oracle_peak():
    # 3,320,977 bytes while the window operators were (branches, 2^w, 2^w)
    c = ClusterCircuit.from_json((DATA / "grid3x4.json").read_text())
    tracemalloc.start()
    try:
        exact_distribution(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
