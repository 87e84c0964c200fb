import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    code_tensor,
    conjecture_fast_path,
    reference_coeff_tensor,
    reference_rounding_bound,
    scatter,
    to_terms,
)
from hypothesis import given, settings, strategies as st

from cylsim import coarse, oracle
from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.coarse import (
    LAMBDA_GROWN,
    PLAIN,
    BlockSpec,
    BlockTooLarge,
    _Frontier,
    _Scan,
    _angles,
    _coordinate_descent,
    _grid_chunks,
    _grid_rows,
    _grid_sign,
    _orbit_head,
    _transverse,
    block_min_prob_dense,
    block_value,
    coeff_tensor,
    find_negativity_witness,
    lemma4_checks,
    rounding_bound,
    s_estimate,
    two_block_formula,
)
from cylsim.czdec import LAMBDA
from cylsim.geometry import XY_PLANE, CylinderExtremum

angles = st.floats(0.0, 2 * math.pi)

#: brackets recorded before the bisection probes decided signs only: lambda
#: blocks at grid 32 and the CLI's tolerance 1e-4, plain 12-site blocks at
#: grid 8 and tolerance 1e-3
BRACKETS = json.loads((Path(__file__).parent / "data" / "coarse_brackets.json").read_text())

#: brackets of every rectangle of 2 to 12 sites in both modes: at grid 32
#: with tolerances 5e-5 and 1e-4, and at grid 8 with 1e-3
SWEEP = json.loads((Path(__file__).parent / "data" / "coarse_sweep.json").read_text())

#: every rectangle of 2 to 12 sites, as (height, width)
RECTANGLES = [(h, w) for h in range(1, 13) for w in range(1, 13) if 2 <= h * w <= 12]


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockSpec(1, 1)
    with pytest.raises(ValueError):
        BlockSpec(2, 2, mode="other")
    assert BlockSpec(1, 2).n == 2


def test_ext_counts():
    assert list(BlockSpec(1, 2).ext_counts()) == [3, 3]
    assert list(BlockSpec(2, 2).ext_counts()) == [2, 2, 2, 2]
    b = BlockSpec(3, 3)
    counts = b.ext_counts().reshape(3, 3)
    assert counts[1, 1] == 0
    assert counts[0, 1] == counts[1, 0] == 1
    assert counts[0, 0] == 2


@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_radii_match_the_formula(mode):
    # radii scale one cached growth vector, read-only like the cached
    # external counts, and equal the formula that builds both anew
    for hw in RECTANGLES:
        b = BlockSpec(*hw, mode)
        deg = np.zeros(b.n, dtype=int)
        for u, v in itertools.chain.from_iterable(
            [((b.index(i, j), b.index(i, j + 1)) for i in range(hw[0]) for j in range(hw[1] - 1)),
             ((b.index(i, j), b.index(i + 1, j)) for i in range(hw[0] - 1) for j in range(hw[1]))]
        ):
            deg[u] += 1
            deg[v] += 1
        assert np.array_equal(b.ext_counts(), 4 - deg)
        for r in (0.0, 0.07, 0.13, 1.0):
            want = np.full(b.n, float(r)) if mode == PLAIN else r * LAMBDA ** (4 - deg).astype(float)
            assert np.array_equal(b.radii(r), want)
        for cached in (b.ext_counts(), b._growth):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0


def test_radii_modes():
    assert np.allclose(BlockSpec(2, 2, PLAIN).radii(0.3), 0.3)
    grown = BlockSpec(2, 2, LAMBDA_GROWN).radii(0.3)
    assert np.allclose(grown, 0.3 * LAMBDA**2)
    with pytest.raises(ValueError):
        BlockSpec(2, 2).radii(-0.1)


def test_two_block_formula_examples():
    assert two_block_formula(0, 0.3, 1.1) == 1
    assert two_block_formula(0.5, 0, 0) == 0
    assert two_block_formula(0.5, math.pi, math.pi) == 2
    # worst case over angles at the threshold radius 1/2 is exactly zero
    assert two_block_formula(0.5, math.pi / 2, -math.pi / 2) == pytest.approx(0.75)


@given(st.floats(0, 1), angles, angles)
def test_block_value_matches_closed_form_1x2(rp, tA, tB):
    b = BlockSpec(1, 2)
    v = block_value(b, np.array([rp, rp]), (tA, tB))
    assert v == pytest.approx(two_block_formula(rp, tA, tB) / 4.0, abs=1e-12)


@pytest.mark.parametrize("hw", [(1, 2), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_backends_agree(hw, mode):
    h, w = hw
    b = BlockSpec(h, w, mode)
    rng = np.random.default_rng(5)
    for r in (0.0, 0.03, 0.1):
        thetas = tuple(rng.uniform(0, 2 * math.pi, b.n))
        dense = block_min_prob_dense(b, r, thetas)
        contracted = block_value(b, b.radii(r), thetas)
        assert dense == pytest.approx(contracted, abs=1e-13)


def test_contraction_transposed_block():
    # H > W path transposes the raster; values must not depend on orientation
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0, 2 * math.pi, 6)
    tall = BlockSpec(3, 2)
    v_tall = block_value(tall, tall.radii(0.2), thetas)
    assert v_tall == pytest.approx(block_min_prob_dense(tall, 0.2, thetas), abs=1e-13)


def test_coeff_tensor_zero_radius_value():
    b = BlockSpec(2, 2)
    assert scatter(coeff_tensor(b), 4)[(0,) * 4] == pytest.approx(2.0**-4)
    assert block_value(b, np.zeros(4), (0.0,) * 4) == pytest.approx(2.0**-4)


def test_s_estimate_1x2_plain():
    est = s_estimate(BlockSpec(1, 2, PLAIN), theta_grid=64, bisect_tol=5e-5)
    assert est.lower <= 0.5 <= est.upper
    assert est.upper - est.lower < 5e-3
    assert est.witness is not None
    assert not est.capped
    # the witness assignment really is negative slightly above the bracket
    v = block_value(
        BlockSpec(1, 2, PLAIN),
        BlockSpec(1, 2, PLAIN).radii(est.upper),
        est.witness,
    )
    assert v < 1e-9


def test_s_estimate_1x2_lambda():
    est = s_estimate(BlockSpec(1, 2, LAMBDA_GROWN), theta_grid=64, bisect_tol=5e-5)
    target = 1.0 / (2.0 * LAMBDA**3)
    assert est.lower <= target + 1e-4
    assert est.upper >= target - 1e-4
    assert est.upper - est.lower < 2e-3


def test_fast_path_matches_descent_small_blocks():
    # at angles restricted to {0, pi} the fast path is exact on tiny blocks
    b = BlockSpec(1, 2, PLAIN)
    v, thetas = conjecture_fast_path(b, 0.6, restarts=2)
    best = min(
        block_value(b, b.radii(0.6), (ta, tb))
        for ta in (0.0, math.pi)
        for tb in (0.0, math.pi)
    )
    assert v == pytest.approx(best, abs=1e-12)
    assert set(thetas) <= {0.0, math.pi}


def test_find_negativity_witness_1x2():
    b = BlockSpec(1, 2, PLAIN)
    hit = find_negativity_witness(b, [0.3, 0.45, 0.55, 0.7])
    assert hit is not None
    r, thetas = hit
    assert r == pytest.approx(0.55)
    assert block_value(b, b.radii(r), thetas) < 0

    assert find_negativity_witness(b, [0.1, 0.2]) is None


def test_lemma4_checks_small():
    report = lemma4_checks(
        BlockSpec(1, 2), BlockSpec(1, 2), BlockSpec(2, 2),
        theta_grid=16, bisect_tol=2e-3,
    )
    assert report["all_ok"]
    assert report["s_plain"]["KL"].lower <= report["s_plain"]["K"].upper
    assert report["s_lambda"]["KL"].upper >= report["s_lambda"]["K"].lower


def _reference_code_tensor(b: BlockSpec) -> np.ndarray:
    """Coefficient tensor over the codes (1, a, conj(a)), entry by entry.

    Per-site code: 0 -> factor 1, 1 -> a_i, 2 -> conj(a_i).  The sign of a
    term is (-1)^(number of nonzero codes) times the CZ parity of the row
    and column bitstrings (s_i = 1 iff code 2, t_i = 1 iff code 1).
    """
    n = b.n
    edges = b.edges()
    C = np.zeros((3,) * n)
    for v in itertools.product((0, 1, 2), repeat=n):
        s = [1 if c == 2 else 0 for c in v]
        t = [1 if c == 1 else 0 for c in v]
        parity = sum(1 for c in v if c != 0)
        parity += sum(s[u] * s[w] + t[u] * t[w] for u, w in edges)
        C[v] = (-1.0) ** parity
    return C / 2.0**n


@pytest.mark.parametrize("hw", [(1, 2), (2, 2), (1, 5), (2, 3), (3, 2), (2, 4), (4, 2), (1, 8)])
def test_code_tensor_matches_enumeration(hw):
    b = BlockSpec(*hw)
    assert np.array_equal(code_tensor(b) * 2.0**-b.n, _reference_code_tensor(b))


@pytest.mark.parametrize("hw", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_coeff_tensor_real_basis_matches_dense(hw):
    b = BlockSpec(*hw, LAMBDA_GROWN)
    D = scatter(coeff_tensor(b), b.n)
    rng = np.random.default_rng(3)
    for r in (0.02, 0.07):
        thetas = rng.uniform(0, 2 * math.pi, b.n)
        a = _transverse(b.radii(r), thetas)
        t = D
        for i in range(b.n):
            t = np.array([1.0, a[i].real, a[i].imag]) @ t.reshape(3, -1)
        assert t.item() == pytest.approx(block_min_prob_dense(b, r, thetas), abs=1e-14)


@pytest.mark.parametrize("hw", [(2, 2), (2, 3)])
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_grid_min_matches_dense_brute_force(hw, mode, monkeypatch):
    b = BlockSpec(*hw, mode)
    r = 0.25 if mode == PLAIN else 0.075
    radii = b.radii(r)
    angles = np.arange(4) * (2 * math.pi / 4)
    brute = min(
        block_min_prob_dense(b, r, [angles[g] for g in idx])
        for idx in itertools.product(range(4), repeat=b.n)
    )
    # one chunk for the whole grid, then one grid point of the last site per chunk
    for chunk in (coarse._CHUNK, 4):
        monkeypatch.setattr(coarse, "_CHUNK", chunk)
        plain = (_Scan(coeff_tensor(b), b.n, 4, mirror_head(b.n, 4)), radii)
        assert min(_grid_chunks(*plain)) == pytest.approx(brute, abs=1e-12)
        assert (_grid_sign(*plain) >= 0.0) == (brute >= 0.0)
        # the scan that s_estimate runs: one grid point per orbit
        order, head, _ = _orbit_head(b.n, b.automorphisms(), 4)
        scan = (_Scan(coeff_tensor(b, order), b.n, 4, head), radii[order])
        assert min(_grid_chunks(*scan)) == pytest.approx(brute, abs=1e-12)
        assert (_grid_sign(*scan) >= 0.0) == (brute >= 0.0)


@pytest.mark.parametrize("hw", [(3, 4), (4, 3), (6, 7)])
def test_frontier_kernels_match_full_contraction(hw):
    b = BlockSpec(*hw, PLAIN)
    r = 0.14
    radii = b.radii(r)
    rng = np.random.default_rng(11)
    thetas = rng.uniform(0, 2 * math.pi, b.n)
    chain = _Frontier(b, _transverse(radii, thetas))
    scale = 2.0**b.n  # block values are of order 2^-n
    # visit sites out of absorption order so that updates invalidate both environments
    for i in rng.permutation(b.n):
        k0, k1, k2 = chain.kernel(i)
        thetas[i] = rng.uniform(0, 2 * math.pi)
        a = _transverse(radii[i], thetas[i])
        full = block_value(b, b.radii(r), thetas)
        assert scale * (k0 + k1 * a + k2 * np.conj(a)).real == pytest.approx(
            scale * full, abs=1e-12
        )
        chain.set(i, a)
        assert scale * chain.value() == pytest.approx(scale * full, abs=1e-12)


def test_fast_path_value_is_exact_3x4():
    b = BlockSpec(3, 4, PLAIN)
    v, thetas = conjecture_fast_path(b, 0.3, restarts=2, seed=1)
    assert set(thetas) <= {0.0, math.pi}
    scale = 2.0**b.n
    assert scale * v == pytest.approx(
        scale * block_value(b, b.radii(0.3), thetas), abs=1e-12
    )


def reference_flip_search(b: BlockSpec, r: float, restarts: int = 8, seed: int = 0):
    """The {0, pi} fast path as its own greedy flip loop, before it became the
    coordinate descent from real starts: kept as the reference that the fold
    must reproduce up to rounding.  It visits the sites in the frontier's
    absorption order, as the descent does."""
    n = b.n
    half = b.radii(r) / 2.0
    rng = np.random.default_rng(seed)

    def descend(pattern):
        chain = _Frontier(b, pattern * half)
        best = chain.value()
        improved = True
        while improved:
            improved = False
            for i in chain.order:
                k0, k1, k2 = chain.kernel(i)
                flipped = -pattern[i] * half[i]
                v = k0 + (k1 + k2) * flipped
                if v < best - 2.0**-40 * abs(best):
                    pattern[i] *= -1
                    chain.set(i, flipped)
                    best = v
                    improved = True
        return best, pattern

    best_v, best_p = descend(np.ones(n, dtype=int))
    for _ in range(restarts):
        v, p = descend(rng.choice([-1, 1], size=n))
        if v < best_v:
            best_v, best_p = v, p
    return float(best_v), tuple(0.0 if s > 0 else math.pi for s in best_p)


@pytest.mark.parametrize("hw", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (6, 7)])
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_fast_path_matches_reference_flip_search(hw, mode):
    b = BlockSpec(*hw, mode)
    scale = 2.0**b.n
    radii = (0.136, 0.3, 0.6) if mode == PLAIN else (0.05, 0.08, 0.2)
    for r in radii:
        for seed in (0, 1):
            v, thetas = conjecture_fast_path(b, r, restarts=2, seed=seed)
            ref, _ = reference_flip_search(b, r, restarts=2, seed=seed)
            assert set(thetas) <= {0.0, math.pi}
            # scaled values reach 8e4 at r = 0.6 on 6x7, hence the relative term
            assert scale * v == pytest.approx(scale * ref, rel=1e-12, abs=1e-12)
            exact = block_value(b, b.radii(r), thetas)
            assert scale * v == pytest.approx(scale * exact, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_witness_hunt_matches_reference_flip_search(seed):
    # criterion 08's radii on 6x7
    b = BlockSpec(6, 7, PLAIN)
    r_values = (0.130, 0.136, 0.140, 0.145)
    hit = find_negativity_witness(b, r_values, restarts=2, seed=seed)
    ref = next(r for r in r_values if reference_flip_search(b, r, restarts=2, seed=seed)[0] < 0.0)
    assert hit is not None and hit[0] == ref


def test_witness_hunt_stops_at_the_first_negative_start(monkeypatch):
    # criterion 08's radii on 6x7: every start of the two radii that hold
    # ends nonnegative, and at 0.14 the zero start ends negative, so the
    # hunt descends 3 + 3 + 1 times where the minimum over starts took 9
    b = BlockSpec(6, 7, PLAIN)
    calls = []
    descent = coarse._coordinate_descent

    def spy(chain, radii):
        calls.append(chain.a.copy())
        return descent(chain, radii)

    monkeypatch.setattr(coarse, "_coordinate_descent", spy)
    r, thetas = find_negativity_witness(b, (0.130, 0.136, 0.140, 0.145), restarts=2)
    monkeypatch.undo()
    assert r == 0.14 and len(calls) == 7
    assert np.array_equal(calls[-1], b.radii(0.14) / 2.0)  # the zero start
    assert block_value(b, b.radii(r), thetas) < 0.0


def test_descent_keeps_the_dtype_of_its_start():
    b = BlockSpec(2, 3, LAMBDA_GROWN)
    radii = b.radii(0.08)
    v, a = _coordinate_descent(_Frontier(b, radii / 2.0), radii)
    assert a.dtype == np.float64
    assert set(_angles(a)) <= {0.0, math.pi}
    assert v == pytest.approx(block_value(b, radii, _angles(a)), abs=1e-15)
    start = _transverse(radii, np.random.default_rng(2).uniform(0, 2 * math.pi, b.n))
    v, a = _coordinate_descent(_Frontier(b, start), radii)
    assert a.dtype == np.complex128
    assert v == pytest.approx(block_value(b, radii, _angles(a)), abs=1e-15)


def test_descent_sweeps_in_absorption_order(monkeypatch):
    # the descent visits the sites in the frontier's absorption order, so an
    # accepted move costs one environment step, and a sweep about 2n.  On
    # the hunt's first random sign start (6x7 plain, r = 0.14), sweeps in
    # site order made 5.4n to 5.8n steps each
    b = BlockSpec(6, 7, PLAIN)
    radii = b.radii(0.14)
    start = np.random.default_rng(0).choice([-1, 1], size=b.n) * radii / 2.0
    calls = {"_step": 0, "kernel": 0}
    for name in calls:

        def spy(self, *args, method=getattr(_Frontier, name), name=name):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(_Frontier, name, spy)
    _coordinate_descent(_Frontier(b, start), radii)
    sweeps, rest = divmod(calls["kernel"], b.n)  # one kernel per site and sweep
    assert rest == 0 and sweeps >= 2
    assert calls["_step"] <= 3 * b.n * sweeps


def test_descent_leaves_no_move_of_relative_gain():
    # plain 8x12 at r = 0.13, where block values are near 1e-40: a least gain
    # fixed at 1e-15 * 2^-84 stopped this descent at -2.987e-40 with a move of
    # gain 2.3e-41 left
    b = BlockSpec(8, 12, PLAIN)
    radii = b.radii(0.13)
    start = np.random.default_rng(2).choice([-1, 1], size=b.n) * radii / 2.0
    val, a = _coordinate_descent(_Frontier(b, start), radii)
    assert val < 0.0
    chain = _Frontier(b, a)
    for i in range(b.n):
        k0, k1, _ = chain.kernel(i)
        assert val - (k0.real - radii[i] * abs(k1)) <= 2.0**-40 * abs(val)


def test_s_estimate_validates_arguments():
    b = BlockSpec(1, 2)
    for grid in (0, 3, -8, 8.0, True):
        with pytest.raises(ValueError, match="theta_grid"):
            s_estimate(b, theta_grid=grid)
    for tol in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="bisect_tol"):
            s_estimate(b, bisect_tol=tol)
    for hw in ((4, 4), (1, 13), (100000, 100000)):
        with pytest.raises(BlockTooLarge):
            s_estimate(BlockSpec(*hw))


def test_s_estimate_tolerance_below_float_resolution_terminates():
    est = s_estimate(BlockSpec(1, 2, PLAIN), theta_grid=8, bisect_tol=1e-300)
    assert est.lower <= 0.5 <= est.upper
    assert est.upper - est.lower < 0.1


def test_upper_search_shrinks_until_a_probe_holds():
    # with every radius tripled, the probe at 0.05 fails, as does 0.05 / 1.5.
    # The search divides r by 1.5 until a probe holds, then bisects between
    # the two, so upper is the 2x2 lambda upper / 3 to the bisection
    # tolerance; bisecting [0.05 / 1.5, 0.05] untested would end near 0.0334
    class Tripled(BlockSpec):
        def radii(self, r):
            return 3.0 * super().radii(r)

    tol = 1e-4
    b = Tripled(2, 2, LAMBDA_GROWN)
    est = s_estimate(b, theta_grid=32, bisect_tol=tol)
    ref = s_estimate(BlockSpec(2, 2, LAMBDA_GROWN), theta_grid=32, bisect_tol=tol)
    first = [(p.r, p.holds) for p in est.probes[:3]]
    assert first == [(0.05, False), (0.05 / 1.5, False), (0.05 / 1.5 / 1.5, True)]
    assert not est.capped and abs(est.upper - ref.upper / 3.0) <= tol
    assert block_value(b, b.radii(est.upper), est.witness) < 0.0
    assert 0.0 < est.lower <= est.upper


@pytest.mark.parametrize("case", BRACKETS, ids=lambda c: f"{c['block']}-{c['mode']}")
def test_brackets_match_recorded(case):
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    est = s_estimate(b, theta_grid=case["grid"], bisect_tol=case["bisect_tol"])
    got = (est.lower, est.upper, est.cert_grid, list(est.witness))
    assert got == (case["r_lower"], case["r_upper"], case["cert_grid"], case["witness"])
    # every decision, not only the bracket; the probe values may move in the last bits
    assert [[p.bound, p.r, p.holds] for p in est.probes] == case["probes"]


@pytest.mark.parametrize("case", SWEEP, ids=lambda c: f"{c['block']}-{c['mode']}-{c['grid']}-{c['bisect_tol']!r}")
def test_sweep_matches_recorded(case):
    # the bracket, certification grid, witness and every probe decision of
    # each recorded case: the upper probes judge the real-term descent, the
    # lower probes the screened certification scans
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    est = s_estimate(b, theta_grid=case["grid"], bisect_tol=case["bisect_tol"])
    got = (est.lower, est.upper, est.cert_grid, list(est.witness) if est.witness else None)
    assert got == (case["r_lower"], case["r_upper"], case["cert_grid"], case["witness"])
    assert [[p.bound, p.r, p.holds] for p in est.probes] == case["probes"]


@pytest.mark.parametrize(
    "case", [("bracket", c) for c in BRACKETS] + [("sweep", c) for c in SWEEP],
    ids=lambda c: f"{c[0]}-{c[1]['block']}-{c[1]['mode']}-{c[1]['grid']}-{c[1]['bisect_tol']!r}",
)
def test_point_decisions_match_chunk_0(case):
    # every lower probe that the all-zero point decides, all of them when it
    # settled the bisection and otherwise the ones it fails, gets the same
    # decision from chunk 0 of its scan, which holds the point.  The probe at
    # an uncapped upper is the witness's, and no point decides it
    _, case = case
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    est = s_estimate(b, theta_grid=case["grid"], bisect_tol=case["bisect_tol"])
    order, head, _ = _orbit_head(b.n, b.automorphisms(), est.cert_grid)
    terms = coeff_tensor(b, order)
    scan = _Scan(terms, b.n, est.cert_grid, head)
    real = coarse._real_terms(terms, order)
    B = rounding_bound(b.radii(est.upper)[order] * est.cert_inflation)
    decided = 0
    for p in (p for p in est.probes if p.bound == "lower" and p.r != est.upper):
        point = point_value(real, b.radii(p.r) * est.cert_inflation)
        if est.lower_screen == "point" or point < B:
            decided += 1
            assert (point >= B) == p.holds
            chunk_0 = itertools.islice(_grid_chunks(scan, b.radii(p.r)[order] * est.cert_inflation), 1)
            assert (min(chunk_0) >= B) == p.holds
    assert decided > 0


@pytest.mark.parametrize("case", BRACKETS, ids=lambda c: f"{c['block']}-{c['mode']}")
def test_point_screen_that_holds_everywhere_falls_back_to_chunk_0(case, monkeypatch):
    # a broken point screen that passes every probe puts the point's lower
    # just below upper, whose full scan misses the margin, so the bisection
    # runs again on full scans and the recorded bracket and decisions come
    # back.  On 2x2, 2x3 and 2x4 every probe below upper then matches the
    # reference bisection on full scans
    monkeypatch.setattr(coarse, "_zero_point", lambda real, radii: math.inf)
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    est = s_estimate(b, theta_grid=case["grid"], bisect_tol=case["bisect_tol"])
    monkeypatch.undo()
    got = (est.lower, est.upper, est.cert_grid, list(est.witness))
    assert got == (case["r_lower"], case["r_upper"], case["cert_grid"], case["witness"])
    assert [[p.bound, p.r, p.holds] for p in est.probes] == case["probes"]
    assert est.lower_screen == "full"
    if case["block"] in ("2x2", "2x3", "2x4"):
        _, probes, _ = reference_lower_bisection(b, est.upper, case["grid"], case["bisect_tol"])
        assert [p for p in est.probes if p.bound == "lower"][1:] == probes[1:]


@pytest.mark.parametrize("hw", RECTANGLES, ids=lambda hw: f"{hw[0]}x{hw[1]}")
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_real_term_descent_matches_frontier_descent(hw, mode):
    # s_estimate's upper probes descend on the real terms of the scan's
    # coefficient tensor, the hunt on the frontier: from real starts both
    # visit the sites in one order and take the same flips, so they end at
    # the same signs, with values within the rounding bound of each other.
    # At the recorded upper, just below and above it, from the all-zero
    # angles and from random sign patterns
    b = BlockSpec(*hw, mode)
    upper = next(c["r_upper"] for c in SWEEP if c["block"] == f"{hw[0]}x{hw[1]}" and c["mode"] == mode)
    order = _orbit_head(b.n, b.automorphisms(), coarse._grid_size(b.n, 32))[0]
    real, visit = coarse._real_terms(coeff_tensor(b, order), order), coarse._absorption(b)[1]
    rng = np.random.default_rng(b.n)
    for r in (0.9 * upper, upper, 1.1 * upper):
        radii = b.radii(r)
        for signs in [np.ones(b.n)] + [rng.choice([-1.0, 1.0], size=b.n) for _ in range(3)]:
            start = signs * radii / 2.0
            v, a = _coordinate_descent(coarse._RealTerms(real, visit, start), radii)
            ref, ref_a = _coordinate_descent(_Frontier(b, start), radii)
            assert np.array_equal(a, ref_a)
            assert abs(v - ref) <= rounding_bound(radii)


def conjugation_even(T: np.ndarray) -> np.ndarray:
    """T with its entries of an odd number of Im codes (code 2) set to zero."""
    n = T.ndim
    ims = sum((np.arange(3) == 2).reshape((3,) + (1,) * (n - 1 - i)) for i in range(n))
    return np.where(ims % 2 == 1, 0.0, T)


def mirror_head(n: int, grid: int):
    """Head of a scan of n sites under the mirror alone: _orbit_head's
    identity group, in site order."""
    return _orbit_head(n, [tuple(range(n))], grid)[1]


def dense_scan(D: np.ndarray, grid: int, head) -> _Scan:
    """The certification scan of a dense tensor, through its nonzero terms."""
    return _Scan(to_terms(D), D.ndim, grid, head)


def reference_grid_chunks(D, radii, grid, head=None):
    """Values of the grid points, one flat array per chunk, in flat index
    order: the grid scan as one loop over the head rows, before it skipped
    mirror images, with the same rows and chunks.  head = (k, leaders) scans
    the leaders' rows of the first k sites; the default scans every row of
    the fewest sites whose tail fits a chunk.  Its kernel forms every head
    row and takes one site at a time, one small product per head row: a
    contraction order independent of the scan's head walk and paired tail."""
    n = D.ndim
    Y = _grid_rows(radii, grid)
    if head is None:
        k, leaders = 0, None
        while grid ** (n - k) > coarse._CHUNK:
            k += 1
    else:
        k, leaders = head
    heads = D.reshape(1, -1)
    for i in range(k):
        heads = np.matmul(Y[i], heads.reshape(len(heads), 3, -1)).reshape(len(heads) * grid, -1)
    if leaders is not None:
        heads = heads[leaders]
    rows = max(1, coarse._CHUNK // grid ** (n - k))
    for s in range(0, len(heads), rows):
        t = heads[s : s + rows]
        for i in range(n - 1, k - 1, -1):
            t = np.matmul(Y[i], t.reshape(len(t), -1, 3).transpose(0, 2, 1))
        yield t.reshape(-1)


def reference_grid_min(D, radii, grid):
    """The full-grid minimum and the flat index of a grid point that attains it."""
    best, best_j, start = math.inf, 0, 0
    for values in reference_grid_chunks(D, radii, grid):
        j = int(np.argmin(values))
        if values[j] < best:
            best, best_j = float(values[j]), start + j
        start += len(values)
    return best, best_j


def assert_near_reference(scan: float, ref: float, D, radii) -> None:
    """The scan's and the reference's minima each lie within the rounding
    bound of the exact one (the reference meets fewer roundings per site),
    so within twice of each other, and they have the same sign."""
    assert abs(scan - ref) <= 2.0 * reference_rounding_bound(D, radii)
    assert (scan >= 0.0) == (ref >= 0.0)


@pytest.mark.parametrize(
    "hw,grid,chunk",
    [((2, 2), 32, None), ((2, 3), 16, None), ((3, 3), 4, None), ((2, 4), 8, None),
     ((3, 4), 4, None), ((1, 12), 2, None), ((2, 2), 8, 64), ((2, 3), 4, 64), ((3, 3), 4, 1024)],
)
def test_grid_chunks_reduce_to_reference_grid_min(hw, grid, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(coarse, "_CHUNK", chunk)
    b = BlockSpec(*hw, LAMBDA_GROWN)
    # block tensors put their grid minimum at the all-zero point, flat index
    # 0; a random tensor puts it elsewhere, and raising its constant term
    # makes it positive.  Both are even under conjugation, as _grid_chunks
    # requires
    head = mirror_head(b.n, grid)
    noise = conjugation_even(np.random.default_rng(b.n).normal(size=(3,) * b.n))
    shifted = noise.copy()
    shifted.flat[0] += 0.01 - min(_grid_chunks(dense_scan(noise, grid, head), b.radii(0.1)))
    assert min(_grid_chunks(dense_scan(shifted, grid, head), b.radii(0.1))) > 0.0
    # the block's terms scan as its dense tensor, and their bound comes from
    # the radii; r = 0.05 holds, 0.12 fails
    terms = coeff_tensor(b)
    D = scatter(terms, b.n)
    signs = set()
    for r in (0.05, 0.08, 0.12):
        chunks = list(_grid_chunks(_Scan(terms, b.n, grid, head), b.radii(r)))
        assert rounding_bound(b.radii(r)) >= reference_rounding_bound(D, b.radii(r))
        signs.add(min(chunks) >= 0.0)
    assert signs == {True, False}
    cases = [(D, b.radii(r)) for r in (0.05, 0.08, 0.12)]
    cases += [(noise, b.radii(0.1)), (shifted, b.radii(0.1))]
    for D, radii in cases:
        chunks = list(_grid_chunks(dense_scan(D, grid, head), radii))
        assert_near_reference(min(chunks), reference_grid_min(D, radii, grid)[0], D, radii)
        first_negative = next((v for v in chunks if v < 0.0), None)
        assert _grid_sign(dense_scan(D, grid, head), radii) == (
            min(chunks) if first_negative is None else first_negative
        )


@pytest.mark.parametrize("hw", [(h, w) for h in (1, 2, 3) for w in (1, 2, 3, 4) if h * w >= 2])
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_coeff_tensor_is_even_under_conjugation(hw, mode):
    # codes 1 and 2 enter _SITE and _EDGE symmetrically, so conjugating every
    # a_i, which negates every Im a_i, leaves the block value unchanged
    b = BlockSpec(*hw, mode)
    D = scatter(coeff_tensor(b), b.n)
    assert_exact_coeff_tensor(b, coeff_tensor(b))
    even = conjugation_even(D)
    assert np.array_equal(D, even)
    assert np.count_nonzero(D) > 0


@pytest.mark.parametrize("grid", range(2, 10))
def test_grid_rows_are_exact_mirror_images(grid):
    rho = 0.3
    (Y,) = _grid_rows([rho], grid)
    for j in range(grid):
        assert np.array_equal(Y[-j % grid], Y[j] * (1.0, 1.0, -1.0))
    a = _transverse(rho, np.arange(grid) * (2 * math.pi / grid))
    assert np.allclose(Y, np.stack([np.ones(grid), a.real, a.imag], axis=1), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "hw,grid,chunk",
    [((2, 2), 5, None), ((2, 3), 7, None), ((1, 12), 2, None), ((2, 2), 7, 64),
     ((2, 3), 5, 64), ((2, 3), 4, 64), ((3, 3), 4, 1024), ((2, 3), 7, 1024)],
)
def test_half_grid_scan_equals_full_mirrored_grid(hw, grid, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(coarse, "_CHUNK", chunk)
    b = BlockSpec(*hw, LAMBDA_GROWN)
    rng = np.random.default_rng(grid * b.n)
    cases = [(scatter(coeff_tensor(b), b.n), b.radii(r)) for r in (0.05, 0.12)]
    cases += [(conjugation_even(rng.normal(size=(3,) * b.n)), b.radii(0.1)) for _ in range(4)]
    mirror = np.ravel_multi_index(
        [-d % grid for d in np.unravel_index(np.arange(grid**b.n), (grid,) * b.n)], (grid,) * b.n
    )
    for D, radii in cases:
        # with the per-row kernel every grid point has the value of its
        # mirror image, bit for bit
        values = np.concatenate(list(reference_grid_chunks(D, radii, grid)))
        assert np.array_equal(values, values[mirror])
        scanned = min(_grid_chunks(dense_scan(D, grid, mirror_head(b.n, grid)), radii))
        assert_near_reference(scanned, values.min(), D, radii)


@pytest.mark.parametrize("grid", [2, 3, 4, 5, 6, 7, 8, 16])
def test_paired_tail_matches_per_row_reference(grid, monkeypatch):
    # _CHUNK = grid^tail sets the tail length: a lone site, one pair, one
    # pair and a lone site, two pairs; a random tensor, neither even under
    # conjugation nor small, puts distinct values in every chunk
    n = 4 if grid == 16 else 5
    rng = np.random.default_rng(grid)
    D = rng.normal(size=(3,) * n)
    radii = rng.uniform(0.05, 0.5, n)
    bound = 2.0 * reference_rounding_bound(D, radii)
    for tail in range(1, n):
        monkeypatch.setattr(coarse, "_CHUNK", grid**tail)
        k, leaders = mirror_head(n, grid)
        assert n - k == tail
        ref = list(reference_grid_chunks(D, radii, grid, (k, leaders)))
        assert len(ref) > 1
        # the chunk minima of D and of -D: every chunk's least and greatest value
        for sign in (1.0, -1.0):
            got = list(_grid_chunks(dense_scan(sign * D, grid, (k, leaders)), radii))
            assert len(got) == len(ref)
            for v, values in zip(got, ref):
                assert abs(v - (sign * values).min()) <= bound


def test_certification_scan_memory():
    # a lower probe that fails stops after chunk 0; its head walk holds one
    # set of at most 2^12 terms per prefix level, not a row of 3^11 codes.
    # The bracket keeps the 2^12 terms of the coefficient tensor, never its
    # 3^12 entries; its traced peak is about 2.02e6 bytes, and the bound 1.3
    # times that
    b = BlockSpec(3, 4, LAMBDA_GROWN)
    order, head, _ = _orbit_head(b.n, b.automorphisms(), 4)
    scan = _Scan(coeff_tensor(b, order), b.n, 4, head)
    radii = b.radii(0.06)[order] * math.sqrt(2.0)
    # a first scan in the process also pays one-time work, such as numpy's
    # lazy imports, that depends on what ran before; warm it up untraced
    next(_grid_chunks(scan, radii))
    tracemalloc.start()
    try:
        assert next(_grid_chunks(scan, radii)) < 0.0
        first_chunk = tracemalloc.get_traced_memory()[1]
        del scan
        tracemalloc.reset_peak()
        coeff_tensor(b, order)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        s_estimate(b, theta_grid=32, bisect_tol=1e-4)
        bracket = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first_chunk < 4e6
    assert build < 4e6
    assert bracket < 2.6e6


@pytest.mark.parametrize("hw,grid,count", [((2, 2), 32, 9), ((2, 3), 16, 130), ((2, 4), 8, 130)])
def test_full_scan_skips_mirror_images(hw, grid, count):
    # 2x2: 2 of the 32 head rows per chunk, and (32 + 2) / 2 of them scanned;
    # 2x3: one of 16^2 head rows per chunk, (256 + 4) / 2 scanned; 2x4: two of
    # 8^3 head rows per chunk, (512 + 8) / 2 scanned
    b = BlockSpec(*hw, LAMBDA_GROWN)
    chunks = _grid_chunks(_Scan(coeff_tensor(b), b.n, grid, mirror_head(b.n, grid)), b.radii(0.01))
    assert len(list(chunks)) == count


#: every H x W block that s_estimate accepts
BLOCKS = [(h, w) for h in range(1, 13) for w in range(1, 13) if 2 <= h * w <= 12]


@pytest.mark.parametrize("hw", BLOCKS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_automorphisms_fix_coeff_tensor_and_radii(hw, mode):
    b = BlockSpec(*hw, mode)
    perms = b.automorphisms()
    # a line has its reversal, a rectangle its 4 reflections, a square 8 symmetries
    assert len(perms) == (2 if 1 in hw else 8 if hw[0] == hw[1] else 4)
    assert tuple(range(b.n)) in perms
    edges = {frozenset(e) for e in b.edges()}
    D = scatter(coeff_tensor(b), b.n)
    radii = b.radii(0.07)
    for p in perms:
        assert {frozenset((p[u], p[v])) for u, v in b.edges()} == edges
        assert all(tuple(p[s] for s in q) in perms for q in perms)  # a group
        assert np.array_equal(D.transpose(p), D)
        assert np.array_equal(radii[list(p)], radii)
    # the scan order's terms are built directly, equal to the transposed tensor's
    order, _, _ = _orbit_head(b.n, perms, coarse._grid_size(b.n, 32))
    assert np.array_equal(scatter(coeff_tensor(b, order), b.n), D.transpose(order))


def reference_mirror_head(n: int, grid: int):
    """The head of a scan under the mirror alone, by its own rule: the fewest
    leading sites, from none, whose tail of grid points fits a chunk, and
    the head rows no larger than their mirror images."""
    k = 0
    while grid ** (n - k) > coarse._CHUNK:
        k += 1
    return k, coarse._leaders(grid, [tuple(range(k))])


def test_one_head_rule_falls_back_to_the_mirror_alone():
    overflowed = []
    for hw in BLOCKS:
        b = BlockSpec(*hw, LAMBDA_GROWN)
        perms = b.automorphisms()
        orbits = sorted({tuple(sorted({p[s] for p in perms})) for s in range(b.n)})
        for grid in sorted({coarse._grid_size(b.n, g) for g in (4, 8, 16, 32)}):
            order, (k, leaders), group_order = _orbit_head(b.n, perms, grid)
            # the sites of whole orbits, until the other sites' grid points fit a chunk
            size = 0
            for orbit in orbits:
                if size and grid ** (b.n - size) <= coarse._CHUNK:
                    break
                size += len(orbit)
            if grid**size <= coarse._CHUNK:
                assert (k, group_order) == (size, 2 * len(perms))
                continue
            overflowed.append((hw, grid))
            ref_k, ref_leaders = reference_mirror_head(b.n, grid)
            assert order == list(range(b.n)) and group_order == 2
            assert k == ref_k and np.array_equal(leaders, ref_leaders)
    assert overflowed == [((2, 2), 32)]
    est = s_estimate(BlockSpec(2, 2, LAMBDA_GROWN), theta_grid=32, bisect_tol=1e-2)
    assert (est.cert_grid, est.scan_group_order, est.scan_points) == (32, 2, 557056)


def complex_basis_coeff_tensor(b: BlockSpec) -> np.ndarray:
    """The real coefficient tensor by a complex basis change of the code
    tensor, one axis at a time: the monomials (1, a, conj(a)) in the basis
    (1, Re a, Im a)."""
    to_real = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0j], [0.0, 1.0, -1.0j]])
    t = (code_tensor(b) * 2.0**-b.n).astype(complex)
    for _ in range(b.n):
        # contract the leading axis; the new axis goes last, so n steps restore the order
        t = np.tensordot(t, to_real, axes=([0], [0]))
    return np.ascontiguousarray(t.real)


def assert_exact_coeff_tensor(b: BlockSpec, terms) -> None:
    """terms are the exact coefficient tensor: one term per vertex subset S,
    at ascending flat indices, of magnitude 2^(|S| - n) for the |S| nonzero
    codes of its index, and scattered they are the complex basis change of
    the code tensor exactly."""
    n = b.n
    index, value = terms
    assert len(index) == 2**n and np.all(np.diff(index) > 0)
    size = (np.array(np.unravel_index(index, (3,) * n)) > 0).sum(axis=0)
    assert np.array_equal(np.abs(value), 2.0 ** (size - n))
    assert np.array_equal(scatter(terms, n), complex_basis_coeff_tensor(b))


@pytest.mark.parametrize("hw", BLOCKS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_coeff_tensor_matches_complex_basis_change(hw):
    b = BlockSpec(*hw)
    assert_exact_coeff_tensor(b, coeff_tensor(b))


@pytest.mark.parametrize("hw", BLOCKS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_coeff_tensor_terms_match_broadcast_reference(hw):
    # the closed form, one term per vertex subset, scattered into 3^n
    # entries equals the tensor built by broadcasting the block factors and
    # changing basis, in site order and in 3 random site orders.  A closed
    # form without the sign (-1)^(m/2) fails here
    b = BlockSpec(*hw)
    rng = np.random.default_rng(b.n)
    for order in [None] + [list(rng.permutation(b.n)) for _ in range(3)]:
        assert np.array_equal(scatter(coeff_tensor(b, order), b.n), reference_coeff_tensor(b, order))


@pytest.mark.parametrize("hw", BLOCKS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_closed_form_rounding_bound_covers_the_float_sum(hw):
    # every term has |D_u| = 2^(|S| - n), so sum_u |D_u| prod_i w_i(u_i) is
    # 2^-n prod_i (1 + rho_i) exactly.  The bound from the radii, padded for
    # its own roundings, is at least the float sum over the dense tensor and
    # within 4n ulps of it
    b = BlockSpec(*hw)
    D = reference_coeff_tensor(b)
    rng = np.random.default_rng(b.n)
    cases = [BlockSpec(*hw, mode).radii(0.07) for mode in (PLAIN, LAMBDA_GROWN)]
    cases += [rng.uniform(0.0, 0.5, b.n) for _ in range(10)]
    for radii in cases:
        ref = reference_rounding_bound(D, radii)
        assert ref <= rounding_bound(radii) <= ref + 4 * b.n * np.spacing(ref)


def brute_force_automorphisms(b: BlockSpec) -> list[tuple[int, ...]]:
    """Every site permutation that maps the edges onto the edges and keeps the
    lambda-grown radii."""
    edges = {frozenset(e) for e in b.edges()}
    radii = BlockSpec(b.height, b.width, LAMBDA_GROWN).radii(0.07)
    return [
        p for p in itertools.permutations(range(b.n))
        if {frozenset((p[u], p[v])) for u, v in b.edges()} == edges
        and np.array_equal(radii[list(p)], radii)
    ]


@pytest.mark.parametrize(
    "hw,grid,chunk",
    [((2, 2), 3, 81), ((2, 2), 4, 256), ((2, 3), 3, 81), ((2, 3), 4, 256), ((3, 2), 5, 625),
     ((1, 4), 4, 16), ((1, 5), 3, 27), ((1, 6), 2, 16)],
)
def test_orbit_scan_covers_the_grid(hw, grid, chunk, monkeypatch):
    # _CHUNK is small, so that the head is a proper part of the block and
    # the scan runs several chunks
    monkeypatch.setattr(coarse, "_CHUNK", chunk)
    b = BlockSpec(*hw, LAMBDA_GROWN)
    n = b.n
    order, (k, leaders), group_order = _orbit_head(n, b.automorphisms(), grid)
    group = brute_force_automorphisms(b)
    assert sorted(group) == b.automorphisms() and group_order == 2 * len(group)
    assert 0 < k and grid ** (n - k) <= chunk
    # the grid points scanned: a leader on the head sites, anything elsewhere
    points = np.indices((grid,) * n).reshape(n, -1).T  # digits per site, in flat order
    heads = points[:, order[:k]] @ grid ** np.arange(k - 1, -1, -1)
    scanned = points[np.isin(heads, leaders)]
    assert len(scanned) == len(leaders) * grid ** (n - k)
    covered = np.zeros(grid**n, dtype=bool)
    for p in group:
        moved = np.empty_like(scanned)
        moved[:, list(p)] = scanned  # the digit of site s moves to site p[s]
        for image in (moved, -moved % grid):
            covered[image @ grid ** np.arange(n - 1, -1, -1)] = True
    assert covered.all()
    # and no two leaders share an orbit: each is the least of its own
    pos = np.argsort(order)
    digits = np.array(np.unravel_index(leaders, (grid,) * k)).T
    for p in group:
        moved = np.empty_like(digits)
        moved[:, [pos[p[s]] for s in order[:k]]] = digits
        for image in (moved, -moved % grid):
            assert (image @ grid ** np.arange(k - 1, -1, -1) >= leaders).all()


@pytest.mark.parametrize(
    "hw,grid,chunk",
    [((2, 2), 16, None), ((2, 3), 16, None), ((2, 3), 7, None), ((2, 4), 8, None),
     ((3, 3), 4, None), ((3, 4), 4, None), ((1, 6), 8, None), ((2, 3), 5, 625), ((3, 2), 4, 256),
     ((2, 3), 3, 81), ((2, 3), 4, 256), ((3, 3), 4, 1024)],
)
def test_orbit_scan_minimum_matches_mirror_scan(hw, grid, chunk, monkeypatch):
    # under a small _CHUNK the head walk recurses above the level where a
    # prefix's head rows fit a chunk and stacks products below it: levels 2
    # of 4 on 2x3 at grid 3 and 4, 3 of 4 on 3x3
    if chunk is not None:
        monkeypatch.setattr(coarse, "_CHUNK", chunk)
    b = BlockSpec(*hw, LAMBDA_GROWN)
    order, head, group_order = _orbit_head(b.n, b.automorphisms(), grid)
    assert group_order > 2
    # integer entries make the sum over the group exact, so the random
    # tensor is invariant bit for bit; raising its constant term, which
    # every permutation fixes, makes its minimum positive
    T = np.random.default_rng(b.n * grid).integers(-64, 65, size=(3,) * b.n).astype(float)
    noise = conjugation_even(sum(T.transpose(p) for p in b.automorphisms()))
    shifted = noise.copy()
    plain = mirror_head(b.n, grid)
    shifted.flat[0] += 1.0 - min(_grid_chunks(dense_scan(noise, grid, plain), b.radii(0.1)))
    cases = [(scatter(coeff_tensor(b), b.n), b.radii(r)) for r in (0.05, 0.07, 0.09, 0.12)]
    cases += [(noise, b.radii(0.1)), (shifted, b.radii(0.1))]
    signs = set()
    for D, radii in cases:
        bound = reference_rounding_bound(D, radii)
        mirror = min(_grid_chunks(dense_scan(D, grid, plain), radii))
        scan = (dense_scan(D.transpose(order), grid, head), radii[order])
        orbit = min(_grid_chunks(*scan))
        # each within the rounding bound of the exact minimum
        assert abs(orbit - mirror) <= 2.0 * bound
        assert (orbit >= 0.0) == (mirror >= 0.0) == (_grid_sign(*scan) >= 0.0)
        signs.add(orbit >= 0.0)
        # chunk by chunk, the minima of D and -D against the per-row reference
        ref = list(reference_grid_chunks(D.transpose(order), radii[order], grid, head))
        for sign in (1.0, -1.0):
            got = list(_grid_chunks(dense_scan(sign * D.transpose(order), grid, head), radii[order]))
            assert len(got) == len(ref)
            for v, values in zip(got, ref):
                assert abs(v - (sign * values).min()) <= 2.0 * bound
    assert signs == {True, False}


@pytest.mark.parametrize("case", [c for c in BRACKETS if c["block"] in ("2x3", "3x4")],
                         ids=lambda c: f"{c['block']}-{c['mode']}")
def test_certified_sign_equals_full_minimum_sign(case):
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    grid = case["cert_grid"]
    scan = _Scan(coeff_tensor(b), b.n, grid, mirror_head(b.n, grid))
    inflate = 1.0 / math.cos(math.pi / grid)
    lower, upper = case["r_lower"], case["r_upper"]
    verdicts = []
    for r in (0.5 * lower, lower, lower + case["bisect_tol"], upper):
        radii = b.radii(r) * inflate
        verdicts.append(_grid_sign(scan, radii) >= 0.0)
        assert verdicts[-1] == (min(_grid_chunks(scan, radii)) >= 0.0)
    assert verdicts == [True, True, False, False]
    # the certified minimum clears its rounding bound by far: 1.5e-9 against
    # 1.6e-17 on 3x4
    radii = b.radii(lower) * inflate
    assert min(_grid_chunks(scan, radii)) > 1e6 * rounding_bound(radii)


def chunks_per_scan(monkeypatch, b: BlockSpec) -> list[tuple[int, int]]:
    """(grid, chunks run) of every certification scan of b's bracket at grid 32."""
    runs = []
    chunks = coarse._grid_chunks

    def spy(scan, radii):
        runs.append([scan.grid, 0])
        for item in chunks(scan, radii):
            runs[-1][1] += 1
            yield item

    monkeypatch.setattr(coarse, "_grid_chunks", spy)
    s_estimate(b, theta_grid=32, bisect_tol=1e-4)
    monkeypatch.undo()
    return [tuple(run) for run in runs]


def test_3x4_bracket_runs_few_full_certification_grids(monkeypatch):
    # the all-zero point settles the lower bisection, one full scan of 4^12
    # points confirms lower, and upper probes run no grid at all
    runs = chunks_per_scan(monkeypatch, BlockSpec(3, 4, LAMBDA_GROWN))
    # one head row of the 4 corners per chunk, one per orbit of the 4^4
    # corner strings under the 4 reflections of the rectangle and the
    # mirror: (256 + 3 * 16 + 2^4 + 3 * 16) / 8 = 46 by Burnside's lemma
    assert runs == [(4, 46)]


@pytest.mark.parametrize("hw", [(2, 2), (2, 3), (2, 4)], ids=["2x2", "2x3", "2x4"])
def test_bracket_runs_one_full_certification_grid(hw, monkeypatch):
    runs = chunks_per_scan(monkeypatch, BlockSpec(*hw, LAMBDA_GROWN))
    assert max(n for _, n in runs) > 1
    assert sum(1 for _, n in runs if n > 1) == 1


def test_one_chunk_grid_runs_one_full_scan(monkeypatch):
    # 3x3's certification grid fits one chunk.  The all-zero point decides
    # every lower probe but the one at upper, which the witness decides, and
    # the one scan, a full scan of that one chunk, confirms lower, whose
    # probe keeps its minimum; every other probe keeps the point's value
    b = BlockSpec(3, 3, LAMBDA_GROWN)
    est = s_estimate(b, theta_grid=32, bisect_tol=1e-4)
    assert est.scan_points <= coarse._CHUNK and est.lower > 0.0
    assert est.lower_screen == "point"
    assert chunks_per_scan(monkeypatch, b) == [(est.cert_grid, 1)]
    order, head, _ = _orbit_head(b.n, b.automorphisms(), est.cert_grid)
    terms = coeff_tensor(b, order)
    scan = _Scan(terms, b.n, est.cert_grid, head)
    real = coarse._real_terms(terms, order)
    lower = [p for p in est.probes if p.bound == "lower"]
    at_lower = max((p for p in lower if p.holds), key=lambda p: p.r)
    assert at_lower.r == est.lower
    assert at_lower.value == min(_grid_chunks(scan, b.radii(est.lower)[order] * est.cert_inflation))
    assert lower[0] == ("lower", est.upper, False, witness_value(est))
    for p in lower[1:]:
        if p is not at_lower:
            assert p.value == point_value(real, b.radii(p.r) * est.cert_inflation)


@pytest.mark.parametrize("hw", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)],
                         ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_bracket_computes_two_rounding_bounds_and_one_full_scan(hw, monkeypatch):
    # every lower probe clears the one bound at upper, so a bracket computes
    # rounding_bound there and once more at lower, for cert_rounding_bound.
    # The all-zero point screens every lower probe, and one full scan
    # confirms lower with a margin of 3 bounds, on 3x3's one-chunk grid too
    bounds, scans = [], []
    bound, sign = coarse.rounding_bound, coarse._grid_sign

    def bound_spy(radii):
        bounds.append(radii)
        return bound(radii)

    def sign_spy(scan, radii):
        scans.append((radii, sign(scan, radii)))
        return scans[-1][1]

    monkeypatch.setattr(coarse, "rounding_bound", bound_spy)
    monkeypatch.setattr(coarse, "_grid_sign", sign_spy)
    b = BlockSpec(*hw, LAMBDA_GROWN)
    est = s_estimate(b, theta_grid=32, bisect_tol=1e-4)
    monkeypatch.undo()
    order, _, _ = _orbit_head(b.n, b.automorphisms(), est.cert_grid)
    upper, lower = (b.radii(r)[order] * est.cert_inflation for r in (est.upper, est.lower))
    assert est.lower > 0.0 and len(bounds) == 2
    assert np.array_equal(bounds[0], upper) and np.array_equal(bounds[1], lower)
    assert est.lower_screen == "point" and len(scans) == 1
    assert np.array_equal(scans[0][0], lower) and scans[0][1] >= 3.0 * bound(upper)


@pytest.mark.parametrize("hw", [(1, 2), (2, 2), (2, 3)], ids=["1x2", "2x2", "2x3"])
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
@pytest.mark.parametrize("grid", [4, 5, 8])
def test_grid_minimum_does_not_increase_with_r(hw, mode, grid):
    # every radius scales with r, so each site's polygon at r1 < r2 lies in
    # its polygon at r2, and the multilinear block value takes its minimum
    # over a product of polygons at a vertex: the exact grid minimum cannot
    # increase with r.  The scan's minima keep that up to their rounding
    # bounds.  This is what lets one full scan at lower confirm a bisection
    # screened at the all-zero point
    b = BlockSpec(*hw, mode)
    est = s_estimate(b, theta_grid=grid, bisect_tol=1e-3)
    order, head, _ = _orbit_head(b.n, b.automorphisms(), est.cert_grid)
    scan = _Scan(coeff_tensor(b, order), b.n, est.cert_grid, head)
    failed = min(p.r for p in est.probes if p.bound == "lower" and not p.holds)
    rs = sorted({0.5 * est.lower, est.lower, failed, est.upper, 2.0 * est.upper})
    scans = []
    for r in rs:
        radii = b.radii(r)[order] * est.cert_inflation
        scans.append((min(_grid_chunks(scan, radii)), rounding_bound(radii)))
    assert {low >= 0.0 for low, _ in scans} == {True, False}  # across the threshold
    for (low1, bound1), (low2, bound2) in itertools.combinations(scans, 2):
        assert low1 >= low2 - bound1 - bound2


def witness_value(est) -> float:
    """The value of the upper probe at est.upper, the witness's."""
    return next(p.value for p in est.probes if p.bound == "upper" and p.r == est.upper)


def point_value(real, radii) -> float:
    """The value of the all-zero grid point of a scan at radii (site order),
    a_i = rho_i / 2, by the bracket's real-term evaluator."""
    return coarse._RealTerms(real, range(len(radii)), radii / 2.0).value()


def reference_lower_bisection(b: BlockSpec, upper: float, theta_grid: int, bisect_tol: float):
    """The lower bisection with one full certification scan per probe, the
    one at upper included, whose decisions s_estimate's screens must
    reproduce: each scan stops at its first negative chunk, and a probe
    holds when the minimum clears the rounding bound.  Returns lower, the
    lower probes and the rounding bound at lower."""
    grid = coarse._grid_size(b.n, theta_grid)
    order, head, _ = _orbit_head(b.n, b.automorphisms(), grid)
    scan = _Scan(coeff_tensor(b, order), b.n, grid, head)
    inflate = 1.0 / math.cos(math.pi / grid)
    probes = []

    def holds(r):
        radii = b.radii(r)[order] * inflate
        low = math.inf
        for v in coarse._grid_chunks(scan, radii):
            low = min(low, v)
            if v < 0.0:
                break
        probes.append(coarse.Probe("lower", r, low >= 0.0 and low >= rounding_bound(radii), low))
        return probes[-1].holds

    lo, hi = (upper, upper) if holds(upper) else (0.0, upper)
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo, probes, rounding_bound(b.radii(lo)[order] * inflate)


@pytest.mark.parametrize("case", [c for c in BRACKETS if c["block"] in ("2x2", "2x3", "2x4")],
                         ids=lambda c: f"{c['block']}-{c['mode']}")
def test_screened_lower_bisection_matches_full_scans(case):
    # the witness and the all-zero point decide every lower probe as full
    # scans do; the probe at upper records the witness's value, every other
    # one the point's, which every scan holds, so the full scan's minimum
    # lies below it up to two rounding bounds, and the probe at lower the
    # minimum of the full scan that confirmed it
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    est = s_estimate(b, case["grid"], case["bisect_tol"])
    lower, probes, bound = reference_lower_bisection(b, est.upper, case["grid"], case["bisect_tol"])
    assert (est.lower, est.cert_rounding_bound, est.lower_screen) == (lower, bound, "point")
    got = [p for p in est.probes if p.bound == "lower"]
    assert [(p.r, p.holds) for p in got] == [(p.r, p.holds) for p in probes]
    order = _orbit_head(b.n, b.automorphisms(), est.cert_grid)[0]
    real = coarse._real_terms(coeff_tensor(b, order), order)
    B = rounding_bound(b.radii(est.upper)[order] * est.cert_inflation)
    assert got[0].value == witness_value(est)
    for p, ref in zip(got[1:], probes[1:]):
        if p.r == lower:
            assert p.value == ref.value
        else:
            assert p.value == point_value(real, b.radii(p.r) * est.cert_inflation)
            assert ref.value <= p.value + 2.0 * B


@pytest.mark.parametrize("below, defect", [(3.0, -1.0), (math.inf, -1.0), (3.0, 1.5)],
                         ids=["negative-near", "negative-everywhere", "within-margin"])
def test_failed_verification_falls_back_to_full_scans(below, defect, monkeypatch):
    # above a cut below the recorded lower, chunk 1 takes defect times the
    # rounding bound, where the all-zero point, in chunk 0, cannot see it.
    # Negative, it fails every full scan above the cut, and the grid minimum
    # still does not increase with r.  At 1.5 rounding bounds every full
    # scan holds, but the one at lower misses the margin, which asks for 3.
    # Either way the point's lower misses it, and the bisection ends on full
    # scans
    case = next(c for c in BRACKETS if c["block"] == "2x3")
    b = BlockSpec(2, 3, case["mode"])
    tol = case["bisect_tol"]
    grid = coarse._grid_size(b.n, case["grid"])
    order = _orbit_head(b.n, b.automorphisms(), grid)[0]
    cut = max(0.0, case["r_lower"] - below * tol)
    edge = (b.radii(cut)[order] / math.cos(math.pi / grid)).max()
    chunks = coarse._grid_chunks

    def defective(scan, radii):
        for i, v in enumerate(chunks(scan, radii)):
            yield defect * rounding_bound(radii) if i == 1 and radii.max() > edge else v

    monkeypatch.setattr(coarse, "_grid_chunks", defective)
    est = s_estimate(b, case["grid"], tol)
    lower, probes, bound = reference_lower_bisection(b, est.upper, case["grid"], tol)
    if defect < 0.0:
        assert cut - tol <= lower <= cut
    else:
        assert lower == case["r_lower"] and probes[-1].value == 1.5 * bound
    assert (est.lower, est.upper, est.cert_rounding_bound) == (lower, case["r_upper"], bound)
    assert est.lower_screen == "full"
    # the probe at upper records the witness's value, a probe that the
    # all-zero point fails the point's, every other one its full scan's
    got = [p for p in est.probes if p.bound == "lower"]
    assert [(p.r, p.holds) for p in got] == [(p.r, p.holds) for p in probes]
    assert got[0].value == witness_value(est)
    real = coarse._real_terms(coeff_tensor(b, order), order)
    B = rounding_bound(b.radii(est.upper)[order] * est.cert_inflation)
    for p, ref in zip(got[1:], probes[1:]):
        point = point_value(real, b.radii(p.r) * est.cert_inflation)
        assert p.value == (point if point < B else ref.value)
    upper = [[p.bound, p.r, p.holds] for p in est.probes if p.bound == "upper"]
    assert upper == [p for p in case["probes"] if p[0] == "upper"]


@pytest.mark.parametrize("hw", [(1, 2), (1, 3), (1, 6), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)],
                         ids=lambda hw: f"{hw[0]}x{hw[1]}")
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_rounding_bound_does_not_decrease_with_r(hw, mode):
    # the inflated radii do not decrease with r in floating point, and
    # rounding_bound takes abs, sums and products of them and of nonnegative
    # operands, each monotone under round-to-nearest.  So the one bound that
    # s_estimate computes at upper is at least every lower probe's own
    # bound, and its margin of 3 such bounds at lower covers the full scan
    # of every screened hold.  Random radii and the next float above each,
    # at the block's certification grid
    b = BlockSpec(*hw, mode)
    grid = coarse._grid_size(b.n, 32)
    order = _orbit_head(b.n, b.automorphisms(), grid)[0]
    inflate = 1.0 / math.cos(math.pi / grid)
    rs = np.random.default_rng(10 * hw[0] + hw[1]).uniform(0.0, 0.2, size=200)
    rs = np.sort(np.concatenate([rs, np.nextafter(rs, 1.0)]))
    bounds = [rounding_bound(b.radii(float(r))[order] * inflate) for r in rs]
    assert all(x <= y for x, y in zip(bounds, bounds[1:]))


def test_lower_probe_must_clear_the_rounding_bound(monkeypatch):
    # a value that is nonnegative but below the scan's forward error
    # certifies nothing, since the exact minimum may be negative.  At the
    # all-zero point it fails every probe with no scan run.  In every scan,
    # the full scan at the point's lower misses the margin, and then the
    # full scan of every probe that the point passes fails it.  The witness
    # fails the probe at upper either way
    b = BlockSpec(2, 2, LAMBDA_GROWN)
    half = lambda *args: 0.5 * rounding_bound(args[1])  # noqa: E731
    for where in ("point", "scan"):
        scans = []
        with monkeypatch.context() as m:
            m.setattr(coarse, "_grid_sign", lambda *args: scans.append(args) or half(*args))
            if where == "point":
                m.setattr(coarse, "_zero_point", half)
            est = s_estimate(b, theta_grid=8, bisect_tol=1e-3)
        lower = [p for p in est.probes if p.bound == "lower"]
        assert lower and not any(p.holds for p in lower)
        assert est.lower == 0.0
        if where == "point":
            assert est.lower_screen == "point" and not scans
            assert lower[0].value == witness_value(est) < 0.0
            assert all(p.value > 0.0 for p in lower[1:])
            continue
        order = _orbit_head(b.n, b.automorphisms(), est.cert_grid)[0]
        real = coarse._real_terms(coeff_tensor(b, order), order)
        B = rounding_bound(b.radii(est.upper)[order] * est.cert_inflation)
        passed = [p for p in lower[1:] if point_value(real, b.radii(p.r) * est.cert_inflation) >= B]
        assert est.lower_screen == "full" and passed
        assert len(scans) == 1 + len(passed)  # the first at the point's lower
        for p, (_, radii) in zip(passed, scans[1:]):
            assert np.array_equal(radii, b.radii(p.r)[order] * est.cert_inflation)
            assert p.value == 0.5 * rounding_bound(radii) > 0.0


def test_lower_probe_at_upper_is_the_witness(monkeypatch):
    # uncapped, the witness lies on the discs at upper, so inside their
    # polygons, and the exact grid minimum there is at most its negative
    # value: the lower probe at upper fails with that value, and neither the
    # all-zero point nor a scan runs there.  A capped bracket has no witness
    # and evaluates its probe at upper
    zero_point, sign = coarse._zero_point, coarse._grid_sign
    b = BlockSpec(2, 3, LAMBDA_GROWN)
    for cap in (coarse.R_SEARCH_CAP, 0.05):
        evaluated = []
        with monkeypatch.context() as m:
            m.setattr(coarse, "R_SEARCH_CAP", cap)
            m.setattr(coarse, "_zero_point", lambda real, radii: evaluated.append(np.sort(radii))
                      or zero_point(real, radii))
            m.setattr(coarse, "_grid_sign", lambda scan, radii: evaluated.append(np.sort(radii))
                      or sign(scan, radii))
            est = s_estimate(b, theta_grid=32, bisect_tol=1e-4)
        at_upper = np.sort(b.radii(est.upper) * est.cert_inflation)
        ran = any(np.array_equal(radii, at_upper) for radii in evaluated)
        probe = next(p for p in est.probes if p.bound == "lower")
        assert probe.r == est.upper and est.capped == (cap == 0.05)
        if not est.capped:
            assert probe == ("lower", est.upper, False, witness_value(est)) and not ran
            continue
        assert (est.upper, est.witness) == (0.05, None) and ran
        assert probe.holds and est.lower == est.upper


def test_probes_record_every_sign_decision(monkeypatch):
    descents = []
    descent = coarse._coordinate_descent

    def spy(chain, radii):
        descents.append((type(chain), radii, chain.a.copy()))
        return descent(chain, radii)

    monkeypatch.setattr(coarse, "_coordinate_descent", spy)
    b = BlockSpec(2, 3, LAMBDA_GROWN)
    est = s_estimate(b, theta_grid=32, bisect_tol=1e-4)
    monkeypatch.undo()
    order, head, _ = _orbit_head(b.n, b.automorphisms(), est.cert_grid)
    terms = coeff_tensor(b, order)
    scan = _Scan(terms, b.n, est.cert_grid, head)
    real, visit = coarse._real_terms(terms, order), coarse._absorption(b)[1]

    def zero_start_descent(r):
        radii = b.radii(r)
        return _coordinate_descent(coarse._RealTerms(real, visit, radii / 2.0), radii)

    bounds = [p.bound for p in est.probes]
    assert bounds == sorted(bounds, reverse=True)  # the upper bisection runs first
    upper = [p for p in est.probes if p.bound == "upper"]
    lower = [p for p in est.probes if p.bound == "lower"]
    assert {p.holds for p in upper} == {p.holds for p in lower} == {True, False}
    for p in upper:
        assert p.holds == (p.value >= 0.0)
        assert p.value == zero_start_descent(p.r)[0]
    inflate = est.cert_inflation
    assert est.cert_rounding_bound == rounding_bound(b.radii(est.lower)[order] * inflate)
    # the witness decides the lower probe at upper and gives it its value,
    # the all-zero point every other one, and records its value; the probe
    # at lower records the minimum of the full scan that confirms it
    B = rounding_bound(b.radii(est.upper)[order] * inflate)
    assert est.lower_screen == "point"
    assert lower[0] == ("lower", est.upper, False, witness_value(est))
    assert min(_grid_chunks(scan, b.radii(est.upper)[order] * inflate)) < 0.0
    for p in lower[1:]:
        radii = b.radii(p.r)[order] * inflate
        full = min(_grid_chunks(scan, radii))
        point = point_value(real, b.radii(p.r) * inflate)
        assert p.holds == (point >= B) == (p.value >= B) == (full >= 0.0)
        if p.r == est.lower:
            assert p.value == full == _grid_sign(scan, radii) >= 3.0 * B
        else:
            assert p.value == point
    # one zero-angle descent on the real terms per upper probe and none for
    # the witness, which is the assignment of the failing probe at upper
    assert len(descents) == len(upper)
    for (kind, radii, start), p in zip(descents, upper):
        assert kind is coarse._RealTerms
        assert np.array_equal(radii, b.radii(p.r)) and np.array_equal(start, radii / 2.0)
    assert est.upper == min(p.r for p in upper if not p.holds)
    assert est.lower == max(p.r for p in lower if p.holds)
    assert est.witness == _angles(zero_start_descent(est.upper)[1])
    assert block_value(b, b.radii(est.upper), est.witness) < 0.0


@pytest.mark.parametrize("hw", [(6, 7), (8, 8)], ids=["6x7", "8x8"])
def test_descent_gain_scales_past_12_sites(hw):
    # block values on 6x7 are near 1e-17, so a fixed 1e-15 gain per move
    # stalled a random-start descent at 2e-15, far above the all-zero value
    # 3.5e-18; the all-zero point is the minimum there up to rounding, so the
    # descent can only come within its stopping gain of it.  On 8x8 every
    # kernel |k1| is below 6e-20, so a floor of 1e-18 on |k1| would leave the
    # descent at its start, 3.0e-20; it ends at -5.2e-26, below the all-zero
    # value -3.6e-27
    b = BlockSpec(*hw, PLAIN)
    radii = b.radii(0.136)
    zero = block_value(b, radii, (0.0,) * b.n)
    start = np.random.default_rng(0).uniform(0, 2 * math.pi, b.n)
    v, a = _coordinate_descent(_Frontier(b, _transverse(radii, start)), radii)
    scale = 2.0**b.n  # block values are sums of terms of order 2^-n
    assert scale * (v - zero) < 1e-9
    assert scale * v == pytest.approx(scale * block_value(b, radii, _angles(a)), abs=1e-12)


@pytest.mark.parametrize("hw", [(1, 2), (1, 3), (2, 2)])
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_certificate_holds_on_dense_backend(hw, mode):
    # re-check a returned bracket with the dense operator, which shares no
    # code with the coefficient tensor or the frontier contraction
    b = BlockSpec(*hw, mode)
    est = s_estimate(b, theta_grid=8, bisect_tol=1e-3)
    angles = np.arange(est.cert_grid) * (2 * math.pi / est.cert_grid)
    r = est.lower * est.cert_inflation
    for idx in itertools.product(range(est.cert_grid), repeat=b.n):
        assert block_min_prob_dense(b, r, [angles[g] for g in idx]) >= 0.0
    assert block_min_prob_dense(b, est.upper, est.witness) < 0.0


@pytest.mark.parametrize("case", BRACKETS, ids=lambda c: f"{c['block']}-{c['mode']}")
def test_recorded_bracket_holds_on_windowed_oracle(case):
    # the windowed dense oracle shares no code with the coefficient tensor or
    # the frontier contraction, and takes 12 sites in milliseconds: with
    # every qubit measured in X, the all-ones outcome is the block value, its
    # (I - X)/2 projection.  It judges the witness at upper and the all-zero
    # grid point, a vertex of every certified polygon, at the inflated lower
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])

    def judged(r, thetas):
        c = ClusterCircuit(
            n_qubits=b.n,
            edges=tuple(b.edges()),
            inputs=tuple(CylinderExtremum(rho, t, +1) for rho, t in zip(b.radii(r), thetas)),
            plan=(MeasurementRule(XY_PLANE),) * b.n,
            order=tuple(range(b.n)),
        )
        value = oracle.exact_distribution(c, prune=0.0)["1" * b.n]
        assert value == pytest.approx(block_value(b, b.radii(r), thetas), rel=1e-11)
        return value

    assert judged(case["r_upper"], case["witness"]) < 0.0
    inflation = 1.0 / math.cos(math.pi / case["cert_grid"])
    assert judged(case["r_lower"] * inflation, [0.0] * b.n) >= 0.0


@pytest.mark.parametrize("hw,mode,grid", [
    ((1, 2), PLAIN, 8), ((2, 2), LAMBDA_GROWN, 32), ((2, 3), LAMBDA_GROWN, 16),
    ((3, 3), PLAIN, 16), ((2, 4), LAMBDA_GROWN, 32), ((3, 4), LAMBDA_GROWN, 32),
], ids=["1x2-plain-8", "2x2-lambda-32", "2x3-lambda-16", "3x3-plain-16", "2x4-lambda-32", "3x4-lambda-32"])
def test_certification_polygons_hold_their_discs(hw, mode, grid, monkeypatch):
    # a lower probe at r certifies the continuous minimum only if each site's
    # grid polygon, vertices (Re a, Im a), holds the disc |a| <= rho / 2 of its
    # exact radius rho: its apothem, the least distance from the centre to an
    # edge line, must reach rho / 2.  Judged on the rows every scan builds,
    # the confirming scan at lower included, whatever inflation made them,
    # against the exact radii at the r of the last BlockSpec.radii call
    # before the scan
    b = BlockSpec(*hw, mode)
    rows = []
    grid_rows, radii = coarse._grid_rows, BlockSpec.radii
    last_r = []

    def rows_spy(radii, g):
        Y = grid_rows(radii, g)
        rows.append((last_r[-1], Y.copy()))
        return Y

    def radii_spy(self, r):
        last_r.append(r)
        return radii(self, r)

    monkeypatch.setattr(coarse, "_grid_rows", rows_spy)
    monkeypatch.setattr(BlockSpec, "radii", radii_spy)
    est = s_estimate(b, theta_grid=grid, bisect_tol=1e-4)
    monkeypatch.undo()
    order = _orbit_head(b.n, b.automorphisms(), est.cert_grid)[0]
    assert est.lower > 0.0 and rows[-1][0] == est.lower  # the scan that confirms lower
    # the point settles every one of these brackets with that one scan
    assert est.lower_screen == "point" and len(rows) == 1
    for r, Y in rows:
        for rho, y in zip(b.radii(r)[order], Y):
            assert len(y) == est.cert_grid
            p, q = y[:, 1:], np.roll(y[:, 1:], -1, axis=0)
            cross = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
            assert np.all(cross < 0.0) or np.all(cross > 0.0)  # convex, around the centre
            apothem = np.min(np.abs(cross) / np.hypot(*(q - p).T))
            assert apothem >= (rho / 2.0) * (1.0 - 1e-14)
