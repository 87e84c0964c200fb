import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_GRAPHS, build_fixture, z_measured_grid3x3

import cylsim
from cylsim import cli, oracle, sampler
from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.cli import (
    EXIT_ERROR,
    EXIT_NOT_SIMULABLE,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    main,
)
from cylsim.czdec import LAMBDA
from cylsim.geometry import XY_PLANE, Z_BASIS, CylinderExtremum

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def circuit_file(tmp_path):
    c = build_fixture("chain2", LAMBDA, adaptive=True)
    path = tmp_path / "chain2.json"
    path.write_text(c.to_json())
    return path


def test_sample_deterministic_csv(tmp_path, circuit_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sample", "--circuit", str(circuit_file), "--shots", "500", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().splitlines()
    assert lines[0] == "bitstring,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 500
    prov = json.loads((tmp_path / "a.csv.provenance.json").read_text())
    assert prov["simulable"] is True
    assert prov["config"]["seed"] == 3
    rep = prov["representation"]
    assert rep["source"] == "stored" and rep["branches"] == 9
    assert rep["growth"] == prov["growth"] and rep["residual"] <= 1e-6
    assert main(args + ["--growth-margin", "2e-3", "--out", str(out2)]) == EXIT_OK
    lp = sampler.default_rep(2e-3)
    assert json.loads((tmp_path / "b.csv.provenance.json").read_text())["representation"] == {
        "growth": lp.growth, "branches": len(lp.branches), "residual": lp.residual,
        "source": lp.source}


@pytest.mark.parametrize("name, digest", [
    ("grid3x4", "54ee63afefe7eb2eccb0760ccdfa0105a130c4548b189979aa181501e679f1a7"),
    ("chain14", "cde229f016cba57cac3f40c015d2755f71dde84a0ebf28189d5162771af58dab"),
], ids=["grid3x4", "chain14"])
def test_sample_csv_is_pinned_across_threads(name, digest, tmp_path):
    # 16389 shots are two blocks of sampler.BLOCK_SHOTS, so the CSV goes
    # through the merge of the blocks' count tables, serial or threaded
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["sample", "--circuit", str(DATA / f"{name}.json"), "--shots", "16389",
                     "--seed", "1", "--threads", threads, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sample_zero_shots(tmp_path, circuit_file):
    out = tmp_path / "z.csv"
    code = main(
        ["sample", "--circuit", str(circuit_file), "--shots", "0", "--seed", "1",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_text() == "bitstring,count\n"


def test_sample_rejects_nonsimulable(tmp_path, capsys):
    c = ClusterCircuit(
        2,
        ((0, 1),),
        (CylinderExtremum(0.9, 0, 1), CylinderExtremum(0.9, 0, 1)),
        (MeasurementRule(XY_PLANE),) * 2,
        (0, 1),
    )
    path = tmp_path / "bad.json"
    path.write_text(c.to_json())
    for command in ("sample", "compare"):
        code = main(
            [command, "--circuit", str(path), "--shots", "10", "--seed", "0",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_NOT_SIMULABLE
        assert capsys.readouterr().err.splitlines() == [
            f"vertex {v}: degree 1, radius 0.9, bound 0.485383 [EXCEEDED]" for v in (0, 1)
        ]
        assert not (tmp_path / "x.csv").exists()


def test_z_measured_vertex_has_no_radius_bound(tmp_path, capsys):
    c = z_measured_grid3x3(sampler.default_rep().growth)
    path = tmp_path / "grid.json"
    path.write_text(c.to_json())
    args = ["--circuit", str(path), "--shots", "20000", "--seed", "1", "--threads", "1"]
    assert main(["sample", *args, "--out", str(tmp_path / "grid.csv")]) == EXIT_OK
    assert main(["compare", *args, "--out", str(tmp_path / "tv.json")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["within_bound"] is True
    # an XY vertex over its bound still refuses the circuit; the Z rows are
    # pole-only, with no bound, and every other row's degree and bound are
    # those of the pole normal form, which drops the Z-measured vertices
    inputs = (CylinderExtremum(0.9, 0.4, -1),) + c.inputs[1:]
    path.write_text(dataclasses.replace(c, inputs=inputs).to_json())
    assert main(["sample", *args, "--out", str(tmp_path / "bad.csv")]) == EXIT_NOT_SIMULABLE
    err = capsys.readouterr().err.splitlines()
    assert err[:4] == [
        "vertex 0: degree 1, radius 0.9, bound 0.485383 [EXCEEDED]",
        "vertex 1: radius 0.95 [pole-only]",
        "vertex 2: degree 1, radius 0.212037, bound 0.485383 [ok]",
        "vertex 3: degree 2, radius 0.102919, bound 0.235597 [ok]",
    ]
    assert [line.rsplit(" ", 1)[1] for line in err[4:]] == ["[pole-only]"] + ["[ok]"] * 4


@pytest.mark.parametrize("name", ["grid3x4_z5", "grid4x4_z8"])
def test_pole_only_vertices_charge_no_bound(tmp_path, capsys, name):
    # grid3x4_z5: radius 0.2 past g^-3 at five vertices of degree 3 or 4, but
    # its Z-measured vertices 1, 4, 6, 9 and 11 drop out of the pole normal
    # form, which leaves degrees of at most 2 (g^-2 = 0.2356); grid4x4_z8: 16
    # qubits, of which rows 0-1 are Z-measured, so the oracle holds 8
    assert main(["compare", "--circuit", str(DATA / f"{name}.json"), "--shots", "100000",
                 "--seed", "1", "--threads", "1", "--out", str(tmp_path / "tv.json")]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["within_bound"] is True and out["tv"] <= out["tv_bound"]


def test_all_z_circuit_compares_and_zero_qubits_are_refused(tmp_path, capsys):
    # every vertex Z-measured: the pole normal form has no qubit, and the one
    # outcome, the pole bits, has mass 1; circuit JSON still needs a qubit
    c = ClusterCircuit(3, ((0, 1), (1, 2)), tuple(CylinderExtremum(0.9, 0.3, p) for p in (1, -1, -1)),
                       (MeasurementRule(Z_BASIS),) * 3, (2, 0, 1))
    path = tmp_path / "z.json"
    path.write_text(c.to_json())
    args = ["--circuit", str(path), "--shots", "100", "--seed", "1", "--threads", "1"]
    assert main(["compare", *args, "--out", str(tmp_path / "tv.json")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "tv": 0.0, "shots": 100, "support": 1, "tv_bound": oracle.tv_bound(100, 1),
        "within_bound": True}
    assert main(["sample", *args, "--out", str(tmp_path / "z.csv")]) == EXIT_OK
    assert (tmp_path / "z.csv").read_text() == "bitstring,count\n011,100\n"
    data = json.loads(c.to_json())
    data.update(n_qubits=0, edges=[], inputs=[], plan=[], order=[])
    path.write_text(json.dumps(data))
    assert main(["sample", *args, "--out", str(tmp_path / "none.csv")]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: n_qubits must be >= 1\n"


def test_sidecar_has_no_bound_for_pole_only_rows(tmp_path):
    out = tmp_path / "z5.csv"
    assert main(["sample", "--circuit", str(DATA / "grid3x4_z5.json"), "--shots", "100",
                 "--seed", "1", "--threads", "1", "--out", str(out)]) == EXIT_OK

    def non_finite(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "z5.csv.provenance.json").read_text()
    rows = json.loads(text, parse_constant=non_finite)["vertex_bounds"]
    assert [row["vertex"] for row in rows] == list(range(12))
    assert [row["vertex"] for row in rows if row.get("status") == "pole-only"] == [1, 4, 6, 9, 11]
    assert all(set(row) == {"vertex", "status"} for row in rows if "status" in row)
    assert max(row["degree"] for row in rows if "degree" in row) == 2


def _nonsimulable_chain(n):
    """A chain of radius-0.9 inputs: every vertex is over its bound."""
    return ClusterCircuit(
        n, tuple((v, v + 1) for v in range(n - 1)), (CylinderExtremum(0.9, 0, 1),) * n,
        (MeasurementRule(XY_PLANE),) * n, tuple(range(n)),
    )


@pytest.mark.parametrize("command, n, extra, code", [
    ("sample", 2, ["--shots", "10", "--threads", "0"], EXIT_NOT_SIMULABLE),
    ("sample", 2, ["--shots", "10", "--threads", "0", "--seed=-1"], EXIT_NOT_SIMULABLE),
    ("sample", 2, ["--shots", str(10**30), "--threads", "0", "--seed=-1"], EXIT_NOT_SIMULABLE),
    ("compare", 15, ["--shots", "10"], EXIT_RESOURCE_CAP),
    ("compare", 15, ["--shots", "0"], EXIT_ERROR),
], ids=["sample-threads", "sample-threads-seed", "sample-threads-seed-shots",
        "compare-wide-nonsimulable", "compare-wide-zero-shots"])
def test_refusal_precedence(tmp_path, capsys, command, n, extra, code):
    """The refusal that wins when a call has two or more faults: not
    simulable over bad sampling arguments, and for compare, zero shots over
    the dense cap over not simulable."""
    path = tmp_path / "c.json"
    path.write_text(_nonsimulable_chain(n).to_json())
    out = tmp_path / "out"
    assert main([command, "--circuit", str(path), "--seed", "1", *extra,
                 "--out", str(out)]) == code
    assert capsys.readouterr().err
    assert not out.exists()


def _malformed(tmp_path, case):
    """Circuit path and extra arguments for one malformed-input case."""
    path = tmp_path / "c.json"
    data = json.loads(build_fixture("chain2", LAMBDA, adaptive=True).to_json())
    extra = []
    if case == "missing-file":
        path = tmp_path / "absent.json"
    elif case == "missing-key":
        del data["order"]
    elif case == "float-edges":
        data["edges"] = [[0.0, 1.0]]
    elif case == "nan-theta":
        data["inputs"][0]["theta"] = math.nan
    elif case == "nan-base-alpha":
        data["plan"][0]["base_alpha"] = math.nan
    elif case == "bool-base-alpha":
        data["plan"][0]["base_alpha"] = True
    elif case in ("bool-r", "bool-theta", "bool-pole", "float-pole"):
        key, value = {"bool-r": ("r", True), "bool-theta": ("theta", False),
                      "bool-pole": ("pole", True), "float-pole": ("pole", 1.0)}[case]
        data["inputs"][0][key] = value
    elif case == "not-json":
        path.write_text("{")
        return path, extra
    elif case == "deep-nesting":
        path.write_text("[" * 100000 + "]" * 100000)
        return path, extra
    else:
        extra = {
            "seed-negative": ["--seed=-1"],
            "seed-too-large": ["--seed", str(2**64)],
            "shots-negative": ["--shots=-5"],
            "threads-zero": ["--threads", "0"],
            "margin-minus-one": ["--growth-margin=-1"],
        }[case]
    if case != "missing-file":
        path.write_text(json.dumps(data))
    return path, extra


@pytest.mark.parametrize("command", ["sample", "compare"])
@pytest.mark.parametrize(
    "case",
    ["missing-file", "missing-key", "float-edges", "nan-theta", "nan-base-alpha", "not-json",
     "bool-base-alpha", "bool-r", "bool-theta", "bool-pole", "float-pole", "deep-nesting", "seed-negative", "seed-too-large", "shots-negative", "threads-zero",
     "margin-minus-one"],
)
def test_sample_compare_reject_malformed_input(tmp_path, capsys, command, case):
    path, extra = _malformed(tmp_path, case)
    args = [command, "--circuit", str(path), "--shots", "10", "--seed", "1",
            "--out", str(tmp_path / "out"), *extra]
    assert main(args) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_sample_rejects_infeasible_growth_margin(tmp_path, circuit_file, capsys):
    # below the critical growth no decomposition exists on the LP's angle grid
    args = ["sample", "--circuit", str(circuit_file), "--shots", "10", "--seed", "1",
            "--out", str(tmp_path / "out"), "--growth-margin=-1e-3"]
    assert main(args) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: no decomposition")


def test_compare_rejects_zero_shots(tmp_path, circuit_file, capsys):
    args = ["compare", "--circuit", str(circuit_file), "--shots", "0", "--seed", "1",
            "--out", str(tmp_path / "out")]
    assert main(args) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: compare needs --shots >= 1")


def test_compare_refuses_by_cost(tmp_path, circuit_file, capsys, monkeypatch):
    out = tmp_path / "cmp.json"
    args = ["compare", "--shots", "10", "--seed", "1", "--out", str(out)]
    wide = ClusterCircuit(
        15, (), (CylinderExtremum(0.1, 0, 1),) * 15, (MeasurementRule(XY_PLANE),) * 15,
        tuple(range(15)),
    )
    path = tmp_path / "wide.json"
    path.write_text(wide.to_json())
    assert main([*args, "--circuit", str(path)]) == EXIT_RESOURCE_CAP
    assert capsys.readouterr().err == "resource cap: dense oracle capped at 14 qubits\n"
    # chain2's pole normal form is its XY-plane vertex 0 alone: the estimated
    # peak is that one step's 301 bytes, of which 144 are numpy's buffers,
    # plus 2^16 = 65837 bytes
    monkeypatch.setattr(oracle, "_available_memory", lambda: 65837)
    assert main([*args, "--circuit", str(circuit_file)]) == EXIT_OK
    out.unlink()

    def not_sampled(*_):
        raise AssertionError("sampled before the memory check")

    monkeypatch.setattr(oracle, "_available_memory", lambda: 65836)
    monkeypatch.setattr(cli.sampler, "sample_parallel", not_sampled)
    assert main([*args, "--circuit", str(circuit_file)]) == EXIT_RESOURCE_CAP
    err = capsys.readouterr().err
    assert err.startswith("resource cap: dense oracle needs about ")
    assert "about 6.58e+04 bytes at 2 qubits" in err and "6.58e+04 bytes of available memory" in err
    assert not out.exists()


def _chain(n):
    return ClusterCircuit(
        n,
        tuple((v, v + 1) for v in range(n - 1)),
        tuple(CylinderExtremum(0.3, 0.5 * v, 1 - 2 * (v % 2)) for v in range(n)),
        tuple(MeasurementRule(XY_PLANE, 0.2 + 0.7 * v, sign_deps=frozenset({v - 1} if v else ()))
              for v in range(n)),
        tuple(range(n)),
    )


def _star(n):
    """A star measured from its centre 0: all n - 1 leaves join the window at
    the first step, the widest window any n-qubit circuit can have."""
    return ClusterCircuit(
        n,
        tuple((0, v) for v in range(1, n)),
        tuple(CylinderExtremum(0.2, 0.3 * v, 1 - 2 * (v % 2)) for v in range(n)),
        tuple(MeasurementRule(XY_PLANE, 0.1 + 0.4 * v, sign_deps=frozenset({0} if v else ()))
              for v in range(n)),
        tuple(range(n)),
    )


def _grid3x4():
    """The 3x4 grid measured row-major: a window of at most 5 qubits."""
    edges = [(4 * r + q, 4 * r + q + 1) for r in range(3) for q in range(3)]
    edges += [(4 * r + q, 4 * r + q + 4) for r in range(2) for q in range(4)]
    return dataclasses.replace(_chain(12), edges=tuple(edges))


@pytest.mark.parametrize("c, low, high, model", [
    # windows of 2 and 5 qubits: far below the 3.2 GB and 201 MB a full operator rule allowed
    (_chain(14), 0, 2**23, None),
    (_grid3x4(), 0, 2**23, None),
    # the leaves' codes beside the centre's three sign rows and both
    # outcomes: 16 + 48 + 32 bytes per code of the nine leaves, 32 * 3^n
    (_star(10), 32 * 3**10, 40 * 3**10, None),
    # every other vertex Z-measured, with one outcome: the pole normal form
    # keeps the 7 others, so 2^7 branches at most, not 2^14, and the estimate
    # is 0.08 MB, not 67.4 MB
    (ClusterCircuit.from_json((DATA / "chain14.json").read_text()), 0, 2**21, 2 * 10**6),
], ids=["chain14", "grid3x4", "star10-centre-first", "chain14-data-z-steps"])
def test_dense_peak_bounds_the_window(c, low, high, model):
    tracemalloc.start()
    try:
        oracle.exact_distribution(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= oracle.dense_peak(c) <= 12 * 4**c.n_qubits + 2**20
    assert low < peak < high
    if model is not None:
        assert oracle.dense_peak(c) < model


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, oracle.DENSE_CAP))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return ClusterCircuit(
        n, tuple(edges), (CylinderExtremum(0.1, 0, 1),) * n, (MeasurementRule(XY_PLANE),) * n,
        tuple(draw(st.permutations(range(n)))),
    )


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_dense_peak_refuses_nothing_the_full_operator_rule_took(c):
    # 12 * 4^n + 2^20 was the rule while the oracle held every unmeasured qubit
    assert oracle.dense_peak(c) <= 12 * 4**c.n_qubits + 2**20


def _compare_before_work(tmp_path, monkeypatch, c) -> int:
    """Exit code of compare on c with the sampler and the exact oracle
    replaced by failures, which escape main: only a refusal made before any
    work returns."""
    def work(*_):
        raise AssertionError("worked after the admission")

    monkeypatch.setattr(cli.sampler, "sample_parallel", work)
    monkeypatch.setattr(cli.oracle, "exact_distribution", work)
    path = tmp_path / "admit.json"
    path.write_text(c.to_json())
    return main(["compare", "--circuit", str(path), "--shots", "10", "--seed", "1",
                 "--out", str(tmp_path / "admit.out")])


@pytest.mark.parametrize("n", [13, 14])
def test_refuse_dense_follows_the_estimate(n, tmp_path, monkeypatch):
    # memory monkeypatched: an oracle this wide is never run by the tests
    c = _star(n)
    need = oracle.dense_peak(c)
    assert 32 * 3**n < need <= 32 * 3**n + 2**20
    monkeypatch.setattr(oracle, "_available_memory", lambda: int(need))
    oracle.admit(c)
    monkeypatch.setattr(oracle, "_available_memory", lambda: int(need) - 1)
    with pytest.raises(oracle.DenseTooLarge) as refused:
        oracle.admit(c)
    assert _compare_before_work(tmp_path, monkeypatch, c) == EXIT_RESOURCE_CAP
    assert str(refused.value).startswith(f"dense oracle needs about {need:.3g} bytes at {n} qubits")


def test_refuse_dense_reads_mem_available(tmp_path, monkeypatch):
    meminfo = tmp_path / "meminfo"
    monkeypatch.setattr(oracle, "_MEMINFO", str(meminfo))
    c = build_fixture("chain2", LAMBDA, adaptive=False)
    need = oracle.dense_peak(c)  # 66320 bytes = 64.8 kB
    meminfo.write_text("MemTotal:       16384000 kB\nMemFree:            1024 kB\n"
                       "MemAvailable:         65 kB\nBuffers:          100 kB\n")
    assert oracle._available_memory() == 65 * 1024 > need
    oracle.admit(c)
    meminfo.write_text("MemTotal:       16384000 kB\nMemAvailable:         64 kB\n")
    with pytest.raises(oracle.DenseTooLarge) as refused:
        oracle.admit(c)
    assert _compare_before_work(tmp_path, monkeypatch, c) == EXIT_RESOURCE_CAP
    assert str(refused.value).endswith("more than the 6.55e+04 bytes of available memory")


def test_available_memory_falls_back_to_sysconf(tmp_path, monkeypatch):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    meminfo = tmp_path / "meminfo"
    monkeypatch.setattr(oracle, "_MEMINFO", str(meminfo))
    assert oracle._available_memory() == physical  # missing
    meminfo.mkdir()
    assert oracle._available_memory() == physical  # unreadable
    meminfo.rmdir()
    for text in ("MemTotal: 1024 kB\n", "MemAvailable: lots\n", "MemAvailable:\n", "\xff\n"):
        meminfo.write_bytes(text.encode("latin-1"))
        assert oracle._available_memory() == physical, text


@pytest.mark.parametrize("command", ["sample", "compare"])
def test_shots_capped_by_uniform_draws(tmp_path, circuit_file, capsys, monkeypatch, command):
    out = tmp_path / "out"
    args = [command, "--circuit", str(circuit_file), "--seed", "1", "--threads", "1",
            "--out", str(out)]
    # chain2 draws 1 uniform a shot: its pole normal form keeps vertex 0
    # alone, without the edge to the Z-measured vertex 1
    shots = 10**30
    assert main([*args, "--shots", str(shots)]) == EXIT_RESOURCE_CAP
    assert capsys.readouterr().err == (
        f"resource cap: {shots} shots need {shots} uniform draws, "
        f"more than the cap of {2**34}\n"
    )
    monkeypatch.setattr(cli.sampler, "MAX_UNIFORMS", 64)
    assert main([*args, "--shots", "65"]) == EXIT_RESOURCE_CAP
    assert "65 shots need 65 uniform draws, more than the cap of 64" in capsys.readouterr().err
    assert not out.exists()
    assert main([*args, "--shots", "64"]) == EXIT_OK
    assert out.exists()


def test_compare_output_independent_of_hash_seed(tmp_path):
    """compare's stdout is byte-identical under two string-hash seeds."""
    src = str(Path(cylsim.__file__).resolve().parents[1])
    stdout = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "cylsim.cli", "compare", "--circuit",
             str(DATA / "chain5.json"), "--shots", "1000", "--seed", "1", "--threads", "1",
             "--out", str(tmp_path / f"tv{seed}.json")],
            env=env, capture_output=True, timeout=120, check=True,
        )
        stdout.append(run.stdout)
    assert stdout[0] == stdout[1]


def test_compare_small_circuit(tmp_path, circuit_file, capsys):
    out = tmp_path / "cmp.json"
    code = main(
        ["compare", "--circuit", str(circuit_file), "--shots", "20000",
         "--seed", "5", "--out", str(out)]
    )
    assert code == EXIT_OK
    result = json.loads(out.read_text())
    assert result["tv"] < 0.03
    assert json.loads(capsys.readouterr().out)["shots"] == 20000


def _adaptive(n, edges, seed):
    """A circuit drawn as the benchmark draws them: angles, poles and
    azimuths from random.Random(seed), radii at 90 % of each vertex's bound at
    the default growth, XY-plane steps that take the previous outcome's sign
    and the first outcome's shift, and a last Z-basis step."""
    rng = random.Random(seed)
    g = sampler.default_rep().growth
    inputs = tuple(
        CylinderExtremum(0.9 * g ** -sum(v in e for e in edges), rng.uniform(0.0, 2.0 * math.pi),
                         rng.choice((1, -1)))
        for v in range(n)
    )
    plan = tuple(
        MeasurementRule(XY_PLANE, rng.uniform(0.0, 2.0 * math.pi), frozenset({v - 1} if v else ()),
                        frozenset({0} if v > 1 else ()))
        for v in range(n - 1)
    )
    return ClusterCircuit(n, tuple(edges), inputs, plan + (MeasurementRule(Z_BASIS),),
                          tuple(range(n)))


def _z_pruned():
    """A 6-chain with pole -1 inputs whose even vertices are Z-measured first:
    each Z step has one outcome, and the oracle prunes the other's branch."""
    g = sampler.default_rep().growth
    edges = tuple((v, v + 1) for v in range(5))
    return ClusterCircuit(
        6,
        edges,
        tuple(CylinderExtremum(0.9 * g ** -sum(v in e for e in edges), 0.2 + 0.7 * v,
                               -1 if v % 3 == 0 else 1) for v in range(6)),
        tuple(MeasurementRule(Z_BASIS) if v % 2 == 0 else
              MeasurementRule(XY_PLANE, 0.3 + 0.5 * v, frozenset({v - 1}), frozenset({0}))
              for v in range(6)),
        (0, 2, 4, 1, 3, 5),
    )


COMPARE_CIRCUITS = {
    **{name: (lambda n=n, e=e: _adaptive(n, e, 17)) for name, (n, e) in FIXTURE_GRAPHS.items()},
    "chain10": lambda: _adaptive(10, _chain(10).edges, 18),
    "grid3x4": lambda: _adaptive(12, _grid3x4().edges, 19),
    "pole-z-pruned": _z_pruned,
}


@pytest.mark.parametrize("name", list(COMPARE_CIRCUITS))
def test_compare_keeps_its_bits(tmp_path, capsys, name):
    """compare's tv, support, tv_bound and within_bound are those of the
    dict formula over plain-dict copies of the count table and the exact
    distribution, bit for bit, for 1 to 2^14 + 5 shots (two blocks)."""
    c = COMPARE_CIRCUITS[name]()
    path = tmp_path / "c.json"
    path.write_text(c.to_json())
    rep = sampler.default_rep()
    dist = dict(oracle.exact_distribution(c))
    support = sum(1 for p in dist.values() if p > 0.0)
    if name == "pole-z-pruned":
        assert len(dist) == 8
    for seed in range(3):
        for shots in (1, 7, 2000, 2**14 + 5):
            counts = dict(sampler.sample_parallel(c, shots, seed, rep))
            total = sum(counts.values())
            p = {k: v / total for k, v in counts.items()}
            tv = 0.5 * math.fsum(abs(p.get(k, 0.0) - dist.get(k, 0.0)) for k in set(p) | set(dist))
            bound = oracle.tv_bound(shots, support)
            for threads in (1, 2):
                assert main(["compare", "--circuit", str(path), "--shots", str(shots),
                             "--seed", str(seed), "--threads", str(threads),
                             "--out", str(tmp_path / "tv.json")]) == EXIT_OK
                out = json.loads(capsys.readouterr().out)
                assert out == {"tv": tv, "shots": shots, "support": support, "tv_bound": bound,
                               "within_bound": tv <= bound}


def test_lemma1_output(capsys):
    assert main(["lemma1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda = 2.058171027271" in out


def test_coarse_1x2_bracket(tmp_path, capsys):
    out = tmp_path / "coarse.json"
    code = main(
        ["coarse", "--block", "1x2", "--mode", "plain", "--grid", "32",
         "--bisect-tol", "1e-3", "--out", str(out)]
    )
    assert code == EXIT_OK
    result = json.loads(out.read_text())
    assert result["r_lower"] <= 0.5 <= result["r_upper"]
    assert result["block"] == "1x2"
    assert not result["search_capped"]
    assert result["cert_inflation"] == 1.0 / math.cos(math.pi / result["certified_grid"])
    # the swap of the two sites and the mirror: Burnside's lemma gives
    # (32^2 + 32 + 2^2 + 32) / 4 orbits of the 32^2 grid points
    assert (result["scan_group_order"], result["scan_points"]) == (4, 273)
    # the all-zero grid point settled the lower bisection
    assert result["lower_screen"] == "point"
    probes = result["probes"]
    assert all(set(p) == {"bound", "r", "holds", "value"} for p in probes)
    assert all(p["holds"] == (p["value"] >= 0.0) for p in probes)
    assert result["r_upper"] == min(p["r"] for p in probes if p["bound"] == "upper" and not p["holds"])
    assert result["r_lower"] == max(p["r"] for p in probes if p["bound"] == "lower" and p["holds"])


def test_coarse_bad_block_and_cap(capsys):
    for block in ("nope", "1x2x"):
        assert main(["coarse", "--block", block]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: --block must look like HxW, e.g. 2x2, got {block!r}\n"
        )
    assert main(["coarse", "--block", "9x9"]) == EXIT_RESOURCE_CAP
    # refused by cost: more than 12 sites put 4 angles per site over 2^24 points
    for block in ("4x4", "1x13", "100000x100000"):
        assert main(["coarse", "--block", block]) == EXIT_RESOURCE_CAP
    assert "4^16 points" in capsys.readouterr().err


def test_coarse_accepts_3x4(tmp_path, capsys):
    out = tmp_path / "coarse.json"
    code = main(
        ["coarse", "--block", "3x4", "--mode", "lambda", "--grid", "4",
         "--bisect-tol", "0.01", "--out", str(out)]
    )
    assert code == EXIT_OK
    result = json.loads(out.read_text())
    assert result["certified_grid"] == 4
    assert result["cert_inflation"] == pytest.approx(math.sqrt(2.0))
    # 46 leaders among the 4^4 corner strings (test_coarse), each with the
    # 4^8 points of the other sites
    assert (result["scan_group_order"], result["scan_points"]) == (8, 46 * 4**8)
    # rounding bound of the grid minimum at r_lower, whose values are near 2^-12
    assert 0.0 < result["cert_rounding_bound"] < 1e-15
    assert 0.0 < result["r_lower"] <= result["r_upper"]
    # the all-zero grid point settled the lower bisection, where chunk 0
    # screens once did, at the same r_lower
    assert result["lower_screen"] == "point"
    assert result["r_lower"] == 0.058007812500000006


@pytest.mark.parametrize(
    "option",
    [["--grid", "0"], ["--grid", "3"], ["--bisect-tol", "0"], ["--bisect-tol", "nan"],
     ["--bisect-tol=-1e-3"], ["--bisect-tol", "inf"]],
)
def test_coarse_rejects_bad_grid_and_tolerance(option, capsys):
    assert main(["coarse", "--block", "1x2", *option]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_purify_default(capsys):
    assert main(["purify"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["p_site"] == pytest.approx(0.7308411, abs=1e-6)
    assert result["r_max"] == pytest.approx(0.8443279, abs=1e-6)
    assert result["verdict"] is True


def test_purify_custom_angles(capsys):
    assert main(["purify", "--angles", "0.18,0.32,0.31"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["angles"][0] == pytest.approx(0.18 * math.pi)


def test_purify_invalid_angles(capsys):
    # violates the chain constraint -> ValueError -> exit 1, with its own message
    assert main(["purify", "--angles", "0.18,0.5"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: chain constraint violated at step 1")
    # an empty list is an error, not a request for the default angles
    # NaN passes the chain constraint's comparison, and inf fails later in sin()
    for angles in ("", " ", "0.1,x", "0.18,,0.32", "nan", "0.1,nan", "0.1,inf", "1e308"):
        assert main(["purify", "--angles", angles]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --angles must be finite numbers in units of pi, "
            f"e.g. 0.18,0.32, got {angles!r}\n"
        )


def test_pbs_verify(tmp_path, capsys):
    out = tmp_path / "pbs.json"
    assert main(["pbs-verify", "--seed", "2", "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    assert result["all_pass"] is True
    assert {c["d"] for c in result["identities"]} == {2, 3, 4}


def test_pbs_verify_names_failing_checks(tmp_path, capsys, monkeypatch):
    # a gap of 1e-9 on the d = 3 identity only, over the 1e-12 tolerance
    monkeypatch.setattr(
        cli.pbs, "offdiag_identity_check", lambda rho: (1e-9 if len(rho) == 3 else 0.0, 0.0)
    )
    out = tmp_path / "pbs.json"
    assert main(["pbs-verify", "--seed", "0", "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_pass"] is False
    assert json.loads(out.read_text())["all_pass"] is False
    assert captured.err == "error: pbs-verify checks failed: identity d=3\n"


def test_usage_errors_exit_1(capsys):
    # argparse exits 2 on a usage error, which here would read as non-simulable
    assert main(["sample", "--shots", "10"]) == EXIT_ERROR
    assert main(["coarse", "--block", "1x2", "--grid", "x"]) == EXIT_ERROR
    assert main(["nope"]) == EXIT_ERROR
    assert "usage: cylsim" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK


#: values that break a circuit JSON field: wrong types, non-finite numbers,
#: integers out of range of an index or a float
BAD_VALUES = [None, True, "x", [], {}, [[0, 1, 2]], -1, 6, 7, 1.5, 10**400,
              math.nan, math.inf, -math.inf, 1e308]
DEEP = "@deep@"


def _json_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _mutated_circuit(data, draw) -> str:
    """Circuit JSON with one to three fields dropped, replaced by a bad value
    or nested 100,000 lists deep."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(data))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["drop", "set", "nest"]))
        if action == "drop":
            del parent[path[-1]]
        else:
            bad = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
            parent[path[-1]] = DEEP if action == "nest" else bad
    return json.dumps(data).replace(f'"{DEEP}"', "[" * 100000 + "]" * 100000)


def _option(draw, name, good, bad):
    """Arguments for one option: omitted, a good value or a malformed one."""
    choice = draw(st.sampled_from(["omit", "good", "bad"]))
    if choice == "omit":
        return []
    return [f"{name}={draw(st.sampled_from(good if choice == 'good' else bad))}"]


def _run_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_NOT_SIMULABLE, EXIT_RESOURCE_CAP), argv
    if code != EXIT_OK:
        assert err.getvalue(), argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_cli_contract_fuzz(data):
    """Mutated circuit JSON and malformed arguments end in an exit code of the
    contract, never in an exception escaping main()."""
    draw = data.draw
    command = draw(st.sampled_from(["sample", "compare", "coarse"]))
    with tempfile.TemporaryDirectory() as tmp:
        if command == "coarse":
            argv = [
                "coarse",
                *_option(draw, "--block", ["1x2", "2x1", "2x2", "1x3", "4x4", "1x13"],
                         ["", "x", "0x2", "1x1", "-1x2", "1x2x3", "ax2", "2x"]),
                *_option(draw, "--mode", ["plain", "lambda"], ["", "grown"]),
                *_option(draw, "--grid", ["4", "8"], ["", "0", "3", "-8", "x", "8.5"]),
                *_option(draw, "--bisect-tol", ["1e-2", "5e-3"],
                         ["", "0", "-1e-3", "nan", "inf", "x"]),
            ]
            _run_contract(argv)
            return
        name = draw(st.sampled_from(sorted(FIXTURE_GRAPHS)))
        circuit = json.loads(build_fixture(name, LAMBDA, adaptive=draw(st.booleans())).to_json())
        path = Path(tmp) / "c.json"
        if draw(st.booleans()):
            path.write_text(_mutated_circuit(circuit, draw))
        else:
            path.write_text(json.dumps(circuit))
        argv = [
            command,
            *_option(draw, "--circuit", [str(path)], [tmp, str(Path(tmp) / "absent.json")]),
            *_option(draw, "--shots", ["0", "1", "64"], ["", "-1", "x", "1e3", "2.5"]),
            *_option(draw, "--seed", ["0", "7", str(2**64 - 1)],
                     ["", "-1", str(2**64), "x", "1.0"]),
            *_option(draw, "--out", [str(Path(tmp) / "out")],
                     [tmp, str(Path(tmp) / "no" / "out")]),
            "--threads=1",
            *_option(draw, "--growth-margin", ["1e-3", "2e-3", "inf"],
                     ["", "-1", "-2", "nan", "x"]),
        ]
        _run_contract(argv)
