import json
import math

import pytest

from conftest import build_fixture

from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.cli import (
    EXIT_ERROR,
    EXIT_NOT_SIMULABLE,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    main,
)
from cylsim.czdec import LAMBDA
from cylsim.geometry import XY_PLANE, CylinderExtremum


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
    code = main(
        ["sample", "--circuit", str(path), "--shots", "10", "--seed", "0",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == EXIT_NOT_SIMULABLE
    assert "EXCEEDED" in capsys.readouterr().err


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
    elif case == "not-json":
        path.write_text("{")
        return path, extra
    else:
        extra = {
            "seed-negative": ["--seed=-1"],
            "seed-too-large": ["--seed", str(2**64)],
            "shots-negative": ["--shots=-5"],
            "threads-zero": ["--threads", "0"],
        }[case]
    if case != "missing-file":
        path.write_text(json.dumps(data))
    return path, extra


@pytest.mark.parametrize("command", ["sample", "compare"])
@pytest.mark.parametrize(
    "case",
    ["missing-file", "missing-key", "float-edges", "nan-theta", "nan-base-alpha", "not-json",
     "seed-negative", "seed-too-large", "shots-negative", "threads-zero"],
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


def test_coarse_bad_block_and_cap(capsys):
    assert main(["coarse", "--block", "nope"]) == EXIT_ERROR
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
    assert 0.0 < result["r_lower"] <= result["r_upper"]


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


def test_purify_invalid_angles():
    # violates the chain constraint -> ValueError -> exit 1
    assert main(["purify", "--angles", "0.18,0.5"]) == EXIT_ERROR


def test_pbs_verify(tmp_path, capsys):
    out = tmp_path / "pbs.json"
    assert main(["pbs-verify", "--seed", "2", "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    assert result["all_pass"] is True
    assert {c["d"] for c in result["identities"]} == {2, 3, 4}
