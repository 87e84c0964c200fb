import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylsim import coarse
from cylsim.coarse import (
    LAMBDA_GROWN,
    PLAIN,
    BlockSpec,
    BlockTooLarge,
    _code_tensor,
    _Frontier,
    _angles,
    _coordinate_descent,
    _grid_chunks,
    _grid_sign,
    _min_gain,
    _transverse,
    block_min_prob_dense,
    block_value,
    coeff_tensor,
    conjecture_fast_path,
    find_negativity_witness,
    lemma4_checks,
    s_estimate,
    two_block_formula,
)
from cylsim.czdec import LAMBDA

angles = st.floats(0.0, 2 * math.pi)

#: brackets recorded before the bisection probes decided signs only: lambda
#: blocks at grid 32 and the CLI's tolerance 1e-4, plain 12-site blocks at
#: grid 8 and tolerance 1e-3
BRACKETS = json.loads((Path(__file__).parent / "data" / "coarse_brackets.json").read_text())


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
    assert coeff_tensor(b)[(0,) * 4] == pytest.approx(2.0**-4)
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
    assert np.array_equal(_code_tensor(b), _reference_code_tensor(b))


@pytest.mark.parametrize("hw", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_coeff_tensor_real_basis_matches_dense(hw):
    b = BlockSpec(*hw, LAMBDA_GROWN)
    D = coeff_tensor(b)
    assert D.dtype == np.float64
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
    D = coeff_tensor(b)
    # one chunk for the whole grid, then one grid point of the last site per chunk
    for chunk in (coarse._CHUNK, 4):
        monkeypatch.setattr(coarse, "_CHUNK", chunk)
        assert min(_grid_chunks(D, radii, 4)) == pytest.approx(brute, abs=1e-12)
        assert (_grid_sign(D, radii, 4) >= 0.0) == (brute >= 0.0)


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
    must reproduce up to rounding."""
    n = b.n
    half = b.radii(r) / 2.0
    rng = np.random.default_rng(seed)
    gain = _min_gain(n)

    def descend(pattern):
        chain = _Frontier(b, pattern * half)
        best = chain.value()
        improved = True
        while improved:
            improved = False
            for i in range(n):
                k0, k1, k2 = chain.kernel(i)
                flipped = -pattern[i] * half[i]
                v = k0 + (k1 + k2) * flipped
                if v < best - gain:
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


def test_descent_keeps_the_dtype_of_its_start():
    b = BlockSpec(2, 3, LAMBDA_GROWN)
    radii = b.radii(0.08)
    v, a = _coordinate_descent(b, radii, radii / 2.0)
    assert a.dtype == np.float64
    assert set(_angles(a)) <= {0.0, math.pi}
    assert v == pytest.approx(block_value(b, radii, _angles(a)), abs=1e-15)
    start = _transverse(radii, np.random.default_rng(2).uniform(0, 2 * math.pi, b.n))
    v, a = _coordinate_descent(b, radii, start)
    assert a.dtype == np.complex128
    assert v == pytest.approx(block_value(b, radii, _angles(a)), abs=1e-15)


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


@pytest.mark.parametrize("case", BRACKETS, ids=lambda c: f"{c['block']}-{c['mode']}")
def test_brackets_match_recorded(case):
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    est = s_estimate(b, theta_grid=case["grid"], bisect_tol=case["bisect_tol"])
    got = (est.lower, est.upper, est.cert_grid, list(est.witness))
    assert got == (case["r_lower"], case["r_upper"], case["cert_grid"], case["witness"])


def reference_grid_min(D, radii, grid):
    """The grid minimum as one loop, before it was split into a chunk
    generator and its reduction: the same chunks and arithmetic, kept as
    the reference that the split must reproduce bit for bit."""
    n = D.ndim
    angles = np.arange(grid) * (2 * math.pi / grid)
    Y = [
        np.stack([np.ones(grid), (rho / 2.0) * np.cos(angles), -(rho / 2.0) * np.sin(angles)], axis=1)
        for rho in radii
    ]
    k = 0
    while grid ** (n - k) > coarse._CHUNK:
        k += 1
    heads = D.reshape(1, -1)
    for i in range(k):
        heads = np.matmul(Y[i], heads.reshape(len(heads), 3, -1)).reshape(len(heads) * grid, -1)
    tail = grid ** (n - k)
    rows = max(1, coarse._CHUNK // tail)
    best, best_j = math.inf, 0
    for s in range(0, len(heads), rows):
        t = heads[s : s + rows]
        for i in range(n - 1, k - 1, -1):
            t = np.matmul(Y[i], t.reshape(len(t), -1, 3).transpose(0, 2, 1))
        j = int(np.argmin(t))
        v = float(t.flat[j])
        if v < best:
            best, best_j = v, s * tail + j
    return best, tuple(angles[g] for g in np.unravel_index(best_j, (grid,) * n))


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
    # makes it positive
    noise = np.random.default_rng(b.n).normal(size=(3,) * b.n)
    shifted = noise.copy()
    shifted.flat[0] += 0.01 - min(_grid_chunks(noise, b.radii(0.1), grid))
    assert min(_grid_chunks(shifted, b.radii(0.1), grid)) > 0.0
    cases = [(coeff_tensor(b), b.radii(r)) for r in (0.05, 0.08, 0.12)]
    cases += [(noise, b.radii(0.1)), (shifted, b.radii(0.1))]
    for D, radii in cases:
        ref = reference_grid_min(D, radii, grid)
        chunks = list(_grid_chunks(D, radii, grid))
        assert min(chunks) == ref[0]
        first_negative = next((v for v in chunks if v < 0.0), None)
        assert _grid_sign(D, radii, grid) == (ref[0] if first_negative is None else first_negative)


@pytest.mark.parametrize("case", [c for c in BRACKETS if c["block"] in ("2x3", "3x4")],
                         ids=lambda c: f"{c['block']}-{c['mode']}")
def test_certified_sign_equals_full_minimum_sign(case):
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    D = coeff_tensor(b)
    grid = case["cert_grid"]
    inflate = 1.0 / math.cos(math.pi / grid)
    lower, upper = case["r_lower"], case["r_upper"]
    verdicts = []
    for r in (0.5 * lower, lower, lower + case["bisect_tol"], upper):
        radii = b.radii(r) * inflate
        verdicts.append(_grid_sign(D, radii, grid) >= 0.0)
        assert verdicts[-1] == (min(_grid_chunks(D, radii, grid)) >= 0.0)
    assert verdicts == [True, True, False, False]


def test_3x4_bracket_runs_few_full_certification_grids(monkeypatch):
    # the bracket at grid 32 used to compute 25 full grids of 4^12 points;
    # only certification probes that hold need all their chunks now, and
    # upper probes run no grid at all
    runs = []
    chunks = coarse._grid_chunks

    def spy(D, radii, grid):
        runs.append([grid, 0])
        for item in chunks(D, radii, grid):
            runs[-1][1] += 1
            yield item

    monkeypatch.setattr(coarse, "_grid_chunks", spy)
    s_estimate(BlockSpec(3, 4, LAMBDA_GROWN), theta_grid=32, bisect_tol=1e-4)
    per_grid = 4**12 // coarse._CHUNK
    assert sum(1 for grid, n in runs if grid == 4 and n == per_grid) <= 5
    assert all(grid == 4 and n in (1, per_grid) for grid, n in runs)


def test_probes_record_every_sign_decision(monkeypatch):
    descents = []
    descent = coarse._coordinate_descent

    def spy(*args):
        descents.append((args[1], args[2]))
        return descent(*args)

    monkeypatch.setattr(coarse, "_coordinate_descent", spy)
    b = BlockSpec(2, 3, LAMBDA_GROWN)
    est = s_estimate(b, theta_grid=32, bisect_tol=1e-4)
    monkeypatch.undo()
    D = coeff_tensor(b)
    bounds = [p.bound for p in est.probes]
    assert bounds == sorted(bounds, reverse=True)  # the upper bisection runs first
    upper = [p for p in est.probes if p.bound == "upper"]
    lower = [p for p in est.probes if p.bound == "lower"]
    assert {p.holds for p in upper} == {p.holds for p in lower} == {True, False}
    for p in upper:
        assert p.holds == (p.value >= 0.0)
        radii = b.radii(p.r)
        assert p.value == _coordinate_descent(b, radii, radii / 2.0)[0]
    inflate = est.cert_inflation
    for p in lower:
        radii = b.radii(p.r) * inflate
        assert p.holds == (p.value >= 0.0) == (min(_grid_chunks(D, radii, est.cert_grid)) >= 0.0)
        assert p.value == _grid_sign(D, radii, est.cert_grid)
        if p.holds:
            assert p.value == min(_grid_chunks(D, radii, est.cert_grid))
    # one zero-angle descent per upper probe and none for the witness, which
    # is the assignment of the failing probe at upper
    assert len(descents) == len(upper)
    for (radii, start), p in zip(descents, upper):
        assert np.array_equal(radii, b.radii(p.r)) and np.array_equal(start, radii / 2.0)
    assert est.upper == min(p.r for p in upper if not p.holds)
    assert est.lower == max(p.r for p in lower if p.holds)
    radii = b.radii(est.upper)
    assert est.witness == _angles(_coordinate_descent(b, radii, radii / 2.0)[1])
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
    v, a = _coordinate_descent(b, radii, _transverse(radii, start))
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
