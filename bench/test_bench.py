"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench

Checks that a run prints every metric of BENCHMARK.json with its unit, and
that corrupted count tables fail the output checks, so the checks are live.
"""

import json
import random
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "sample-long": {"circuits": {"chain2": 300, "cycle4": 300}},
    "compare-dense": {"circuits": {"chain10": 300}},
    "coarse-bracket": {"blocks": ["2x2"], "hunt_radii": [0.145]},
}


def result_of(capsys, argv, overrides):
    assert run.main(argv, overrides) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [tuple(m.values()) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == run.layers.spec()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, name, trace):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    res = result_of(capsys, argv, TINY[name])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("which", ["every table", "threads 2 only"])
def test_corrupted_counts_fail_the_check(capsys, monkeypatch, which):
    real = workloads.read_counts

    def corrupted(path):
        counts = real(path)
        if which == "every table":
            # every shot moved onto one outcome: same total, wrong distribution
            return {min(counts): sum(counts.values())}
        if "t2" in path.name:
            # one shot moved: only the serial/parallel identity check sees it
            counts[min(counts)] -= 1
            counts["corrupt"] = 1
        return counts

    monkeypatch.setattr(workloads, "read_counts", corrupted)
    argv = ["--workload", "sample-long", "--seed", "3", "--seconds", "0"]
    res = result_of(capsys, argv, TINY["sample-long"])
    assert res["correct"] is False
    if which == "every table":
        assert res["failed"] == res["attempted"]
        assert res["metrics"]["success_frac"]["value"] == 0.0
    else:
        assert res["failed"] == res["attempted"] // 2
        assert res["metrics"]["success_frac"]["value"] == 0.5


def test_tv_bound_holds_for_exact_samples():
    rng = random.Random(0)
    p = {"a": 0.5, "b": 0.3, "c": 0.2}
    draws = rng.choices(list(p), weights=list(p.values()), k=2000)
    counts = {k: draws.count(k) / len(draws) for k in p}
    assert workloads.tv_distance(counts, p) <= workloads.tv_bound(2000, 3)
    assert workloads.tv_distance({"a": 1.0}, p) > workloads.tv_bound(2000, 3)


def test_tracer_skips_absent_function_and_restores_the_rest():
    cylsim = run.Cylsim()
    orig = cylsim.sampler.check_simulable
    tracer = Tracer(targets=(("sampler", "no_such_function", None),
                             ("sampler", "check_simulable", None)))
    tracer.install()
    assert cylsim.sampler.check_simulable is not orig
    tracer.uninstall()
    assert cylsim.sampler.check_simulable is orig
    assert tracer.absent == ["sampler.no_such_function"]
