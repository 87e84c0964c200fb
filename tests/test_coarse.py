import itertools
import json
import math
import tracemalloc
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
    _grid_rows,
    _grid_sign,
    _min_gain,
    _orbit_head,
    _transverse,
    block_min_prob_dense,
    block_value,
    coeff_tensor,
    conjecture_fast_path,
    find_negativity_witness,
    lemma4_checks,
    rounding_bound,
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
    assert np.array_equal(_code_tensor(b) * 2.0**-b.n, _reference_code_tensor(b))


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
        plain = (D, radii, 4, mirror_head(b.n, 4))
        assert min(_grid_chunks(*plain)) == pytest.approx(brute, abs=1e-12)
        assert (_grid_sign(*plain) >= 0.0) == (brute >= 0.0)
        # the scan that s_estimate runs: one grid point per orbit
        order, head, _ = _orbit_head(b.n, b.automorphisms(), 4)
        scan = (coeff_tensor(b, order), radii[order], 4, head)
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
    # every decision, not only the bracket; the probe values may move in the last bits
    assert [[p.bound, p.r, p.holds] for p in est.probes] == case["probes"]


def conjugation_even(T: np.ndarray) -> np.ndarray:
    """T with its entries of an odd number of Im codes (code 2) set to zero."""
    n = T.ndim
    ims = sum((np.arange(3) == 2).reshape((3,) + (1,) * (n - 1 - i)) for i in range(n))
    return np.where(ims % 2 == 1, 0.0, T)


def mirror_head(n: int, grid: int):
    """Head of a scan of n sites under the mirror alone: _orbit_head's
    identity group, in site order."""
    return _orbit_head(n, [tuple(range(n))], grid)[1]


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
    """The scan's and the reference's minima each lie within rounding_bound
    of the exact one (the reference meets fewer roundings per site), so
    within twice of each other, and they have the same sign."""
    assert abs(scan - ref) <= 2.0 * rounding_bound(D, radii)
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
    shifted.flat[0] += 0.01 - min(_grid_chunks(noise, b.radii(0.1), grid, head))
    assert min(_grid_chunks(shifted, b.radii(0.1), grid, head)) > 0.0
    cases = [(coeff_tensor(b), b.radii(r)) for r in (0.05, 0.08, 0.12)]
    cases += [(noise, b.radii(0.1)), (shifted, b.radii(0.1))]
    for D, radii in cases:
        chunks = list(_grid_chunks(D, radii, grid, head))
        assert_near_reference(min(chunks), reference_grid_min(D, radii, grid)[0], D, radii)
        first_negative = next((v for v in chunks if v < 0.0), None)
        assert _grid_sign(D, radii, grid, head) == (min(chunks) if first_negative is None else first_negative)


@pytest.mark.parametrize("hw", [(h, w) for h in (1, 2, 3) for w in (1, 2, 3, 4) if h * w >= 2])
@pytest.mark.parametrize("mode", [PLAIN, LAMBDA_GROWN])
def test_coeff_tensor_is_even_under_conjugation(hw, mode):
    # codes 1 and 2 enter _SITE and _EDGE symmetrically, so conjugating every
    # a_i, which negates every Im a_i, leaves the block value unchanged
    D = coeff_tensor(BlockSpec(*hw, mode))
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
    cases = [(coeff_tensor(b), b.radii(r)) for r in (0.05, 0.12)]
    cases += [(conjugation_even(rng.normal(size=(3,) * b.n)), b.radii(0.1)) for _ in range(4)]
    mirror = np.ravel_multi_index(
        [-d % grid for d in np.unravel_index(np.arange(grid**b.n), (grid,) * b.n)], (grid,) * b.n
    )
    for D, radii in cases:
        # with the per-row kernel every grid point has the value of its
        # mirror image, bit for bit
        values = np.concatenate(list(reference_grid_chunks(D, radii, grid)))
        assert np.array_equal(values, values[mirror])
        scanned = min(_grid_chunks(D, radii, grid, mirror_head(b.n, grid)))
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
    bound = 2.0 * rounding_bound(D, radii)
    for tail in range(1, n):
        monkeypatch.setattr(coarse, "_CHUNK", grid**tail)
        k, leaders = mirror_head(n, grid)
        assert n - k == tail
        ref = list(reference_grid_chunks(D, radii, grid, (k, leaders)))
        assert len(ref) > 1
        # the chunk minima of D and of -D: every chunk's least and greatest value
        for sign in (1.0, -1.0):
            got = list(_grid_chunks(sign * D, radii, grid, (k, leaders)))
            assert len(got) == len(ref)
            for v, values in zip(got, ref):
                assert abs(v - (sign * values).min()) <= bound


def test_certification_scan_memory():
    # a lower probe that fails stops after chunk 0; its head forms one row
    # per prefix level, not every grid child of D (4.25 MB here)
    b = BlockSpec(3, 4, LAMBDA_GROWN)
    order, head, _ = _orbit_head(b.n, b.automorphisms(), 4)
    D = coeff_tensor(b, order)
    radii = b.radii(0.06)[order] * math.sqrt(2.0)
    # a first scan in the process also pays one-time work, such as numpy's
    # lazy imports, that depends on what ran before; warm it up untraced
    next(_grid_chunks(D, radii, 4, head))
    tracemalloc.start()
    try:
        assert next(_grid_chunks(D, radii, 4, head)) < 0.0
        first_chunk = tracemalloc.get_traced_memory()[1]
        del D
        tracemalloc.reset_peak()
        s_estimate(b, theta_grid=32, bisect_tol=1e-4)
        bracket = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first_chunk < 4e6
    assert bracket < 10e6


@pytest.mark.parametrize("hw,grid,count", [((2, 2), 32, 9), ((2, 3), 16, 130), ((2, 4), 8, 130)])
def test_full_scan_skips_mirror_images(hw, grid, count):
    # 2x2: 2 of the 32 head rows per chunk, and (32 + 2) / 2 of them scanned;
    # 2x3: one of 16^2 head rows per chunk, (256 + 4) / 2 scanned; 2x4: two of
    # 8^3 head rows per chunk, (512 + 8) / 2 scanned
    b = BlockSpec(*hw, LAMBDA_GROWN)
    chunks = _grid_chunks(coeff_tensor(b), b.radii(0.01), grid, mirror_head(b.n, grid))
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
    D = coeff_tensor(b)
    radii = b.radii(0.07)
    for p in perms:
        assert {frozenset((p[u], p[v])) for u, v in b.edges()} == edges
        assert all(tuple(p[s] for s in q) in perms for q in perms)  # a group
        assert np.array_equal(D.transpose(p), D)
        assert np.array_equal(radii[list(p)], radii)
    # the scan order's tensor is built directly, equal to the transposed one
    order, _, _ = _orbit_head(b.n, perms, coarse._grid_size(b.n, 32))
    assert np.array_equal(coeff_tensor(b, order), D.transpose(order))


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


def reference_coeff_tensor(b: BlockSpec) -> np.ndarray:
    """The real coefficient tensor by a complex basis change of the code
    tensor, one axis at a time: the monomials (1, a, conj(a)) in the basis
    (1, Re a, Im a)."""
    to_real = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0j], [0.0, 1.0, -1.0j]])
    t = (_code_tensor(b) * 2.0**-b.n).astype(complex)
    for _ in range(b.n):
        # contract the leading axis; the new axis goes last, so n steps restore the order
        t = np.tensordot(t, to_real, axes=([0], [0]))
    return np.ascontiguousarray(t.real)


@pytest.mark.parametrize("hw", BLOCKS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
def test_coeff_tensor_matches_complex_basis_change(hw):
    b = BlockSpec(*hw)
    D = coeff_tensor(b)
    assert D.dtype == np.float64 and D.flags.c_contiguous
    assert np.array_equal(D, reference_coeff_tensor(b))


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
    shifted.flat[0] += 1.0 - min(_grid_chunks(noise, b.radii(0.1), grid, plain))
    cases = [(coeff_tensor(b), b.radii(r)) for r in (0.05, 0.07, 0.09, 0.12)]
    cases += [(noise, b.radii(0.1)), (shifted, b.radii(0.1))]
    signs = set()
    for D, radii in cases:
        mirror = min(_grid_chunks(D, radii, grid, plain))
        scan = (D.transpose(order), radii[order], grid, head)
        orbit = min(_grid_chunks(*scan))
        # each within rounding_bound of the exact minimum
        assert abs(orbit - mirror) <= 2.0 * rounding_bound(D, radii)
        assert (orbit >= 0.0) == (mirror >= 0.0) == (_grid_sign(*scan) >= 0.0)
        signs.add(orbit >= 0.0)
        # chunk by chunk, the minima of D and -D against the per-row reference
        ref = list(reference_grid_chunks(*scan))
        for sign in (1.0, -1.0):
            got = list(_grid_chunks(sign * scan[0], *scan[1:]))
            assert len(got) == len(ref)
            for v, values in zip(got, ref):
                assert abs(v - (sign * values).min()) <= 2.0 * rounding_bound(D, radii)
    assert signs == {True, False}


@pytest.mark.parametrize("case", [c for c in BRACKETS if c["block"] in ("2x3", "3x4")],
                         ids=lambda c: f"{c['block']}-{c['mode']}")
def test_certified_sign_equals_full_minimum_sign(case):
    b = BlockSpec(*map(int, case["block"].split("x")), case["mode"])
    D = coeff_tensor(b)
    grid = case["cert_grid"]
    head = mirror_head(b.n, grid)
    inflate = 1.0 / math.cos(math.pi / grid)
    lower, upper = case["r_lower"], case["r_upper"]
    verdicts = []
    for r in (0.5 * lower, lower, lower + case["bisect_tol"], upper):
        radii = b.radii(r) * inflate
        verdicts.append(_grid_sign(D, radii, grid, head) >= 0.0)
        assert verdicts[-1] == (min(_grid_chunks(D, radii, grid, head)) >= 0.0)
    assert verdicts == [True, True, False, False]
    # the certified minimum clears its rounding bound by far: 1.5e-9 against
    # 1.6e-17 on 3x4
    radii = b.radii(lower) * inflate
    assert min(_grid_chunks(D, radii, grid, head)) > 1e6 * rounding_bound(D, radii)


def test_3x4_bracket_runs_few_full_certification_grids(monkeypatch):
    # the bracket at grid 32 used to compute 25 full grids of 4^12 points;
    # only certification probes that hold need all their chunks now, and
    # upper probes run no grid at all
    runs = []
    chunks = coarse._grid_chunks

    def spy(D, radii, grid, head):
        runs.append([grid, 0])
        for item in chunks(D, radii, grid, head):
            runs[-1][1] += 1
            yield item

    monkeypatch.setattr(coarse, "_grid_chunks", spy)
    s_estimate(BlockSpec(3, 4, LAMBDA_GROWN), theta_grid=32, bisect_tol=1e-4)
    # one head row of the 4 corners per chunk, one per orbit of the 4^4
    # corner strings under the 4 reflections of the rectangle and the
    # mirror: (256 + 3 * 16 + 2^4 + 3 * 16) / 8 = 46 by Burnside's lemma
    per_grid = 46
    assert sum(1 for grid, n in runs if grid == 4 and n == per_grid) <= 5
    assert all(grid == 4 and n in (1, per_grid) for grid, n in runs)


def test_lower_probe_must_clear_the_rounding_bound(monkeypatch):
    # a grid minimum that is nonnegative but below the scan's forward error
    # certifies nothing, since the exact minimum may be negative
    monkeypatch.setattr(coarse, "_grid_sign", lambda D, radii, *_: 0.5 * rounding_bound(D, radii))
    est = s_estimate(BlockSpec(2, 2, LAMBDA_GROWN), theta_grid=8, bisect_tol=1e-3)
    lower = [p for p in est.probes if p.bound == "lower"]
    assert lower and not any(p.holds for p in lower)
    assert all(p.value > 0.0 for p in lower)
    assert est.lower == 0.0


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
    order, head, _ = _orbit_head(b.n, b.automorphisms(), est.cert_grid)
    D = coeff_tensor(b, order)
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
    assert est.cert_rounding_bound == rounding_bound(D, b.radii(est.lower)[order] * inflate)
    for p in lower:
        radii = b.radii(p.r)[order] * inflate
        full = min(_grid_chunks(D, radii, est.cert_grid, head))
        assert p.holds == (p.value >= rounding_bound(D, radii)) == (full >= 0.0)
        assert p.value == _grid_sign(D, radii, est.cert_grid, head)
        if p.holds:
            assert p.value == full
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
