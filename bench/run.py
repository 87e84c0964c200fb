"""cylsim benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload sample-long --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory; there is nothing to build.  A run

1. writes the workload's inputs, made from --seed, under bench/out/;
2. sets up: imports cylsim and makes one small warm-up call per distinct
   input, which fills the lazy caches (LP representation, coefficient
   tensors);
3. runs passes over the workload's operations until --seconds would be
   exceeded (at least one pass; with --trace 1 at least two, alternating
   untraced and traced);
4. checks every output, then repeats the set-up in fresh processes to take a
   median set-up time;
5. writes a run record (and with --trace 1 the spans) under bench/out/ and
   prints, as its last line, one JSON object with the keys correct,
   attempted, failed and metrics: every end-to-end metric with --trace 0,
   every per-layer metric with --trace 1.

Exits 2 without printing a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

# One BLAS thread per process, set before numpy loads: the workloads state
# how many processes they use, and two BLAS threads contending for two cores
# made single coarse passes differ by up to 30 % between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from tracer import WORKER_NOTE, Tracer  # noqa: E402
from workloads import WORKLOADS, Record, run_warm_up  # noqa: E402

#: extra set-up repetitions, each in a fresh process, behind the set-up median
SETUP_PROBES = 2

#: (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_frac", "frac", "higher", 0.01),
)

MODULES = ("cli", "circuits", "czdec", "sampler", "oracle", "coarse")


class SetupError(RuntimeError):
    pass


class Cylsim:
    """The cylsim modules the benchmark drives, imported from SRC."""

    def __init__(self):
        pkg = importlib.import_module("cylsim")
        where = Path(pkg.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise SetupError(f"cylsim imported from {where}, not from {SRC}")
        self.version = getattr(pkg, "__version__", None)
        for m in MODULES:
            setattr(self, m, importlib.import_module(f"cylsim.{m}"))


def set_up(plan: list, tracer: Tracer | None = None) -> tuple[float, Cylsim]:
    """Import cylsim and run the warm-up plan; returns the wall time taken."""
    start = time.perf_counter()
    cylsim = Cylsim()
    if tracer is not None:
        tracer.install()
    run_warm_up(cylsim, plan)
    return time.perf_counter() - start, cylsim


def setup_probe(plan_path: Path) -> int:
    seconds, _ = set_up(json.loads(plan_path.read_text(encoding="utf-8")))
    print(json.dumps({"setup_s": seconds}))
    return 0


def probe_setups(plan_path: Path, count: int) -> list[float]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(plan_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_passes(wl, cylsim, seconds: float, tracer: Tracer | None) -> list[Record]:
    """Closed loop over the workload's operations, pass after pass."""
    records: list[Record] = []
    walls: list[float] = []
    start = time.perf_counter()
    min_passes = 2 if tracer else 1
    p = 0
    while True:
        traced = tracer is not None and p % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        for op in wl.ops():
            rec = Record(op, p, traced)
            if tracer is not None:
                tracer.op = len(records)
            records.append(rec)
            t0 = time.perf_counter()
            try:
                rec.wall, rec.output = wl.run_op(cylsim, op, p)
            except (Exception, SystemExit) as exc:
                rec.wall = time.perf_counter() - t0
                rec.failures.append(f"{type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.op = -1
        walls.append(sum(r.wall for r in records if r.pass_idx == p))
        p += 1
        elapsed = time.perf_counter() - start
        if p >= min_passes and elapsed + median(walls) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return records


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of measurements."""
    q = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cylsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(cylsim: Cylsim) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cylsim": cylsim.version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, overrides: dict | None = None) -> dict:
    workdir = OUT / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, workdir, **(overrides or {}))
    wl.make_inputs()
    plan = wl.warm_up_plan()
    plan_path = workdir / "warm_up.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    tracer = Tracer() if trace else None
    setup_s, cylsim = set_up(plan, tracer)
    if tracer is not None:
        tracer.uninstall()
    records = run_passes(wl, cylsim, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check(cylsim, records)

    attempted = len(records)
    failed = sum(1 for r in records if r.failures)
    untraced = sorted({r.pass_idx for r in records if not r.traced})
    passes = [[r for r in records if r.pass_idx == p] for p in untraced]
    pass_walls = [sum(r.wall for r in rs) for rs in passes]
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(cylsim),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [
            {"pass": r.pass_idx, "op": r.op.kind, "input": r.op.input,
             "threads": r.op.threads, "reasons": r.failures}
            for r in records if r.failures
        ],
        "operations": [
            {"pass": r.pass_idx, "traced": r.traced, "op": r.op.kind, "input": r.op.input,
             "threads": r.op.threads, "shots": r.op.shots, "wall_s": r.wall}
            for r in records
        ],
        "figures": {k: summary(v) if isinstance(v, list) else v
                    for k, v in wl.figures(passes).items()},
    }
    if trace:
        rep_branches = 0
        if any(r.op.shots for r in records) and hasattr(cylsim.sampler, "default_rep"):
            rep_branches = len(cylsim.sampler.default_rep().branches)
        values = layers.per_layer(tracer, records, rep_branches)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in layers.spec()}
        record["trace_note"] = WORKER_NOTE
        record["traced_passes"] = len({r.pass_idx for r in records if r.traced})
        record["absent"] = tracer.absent
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        print(f"note: {WORKER_NOTE}", file=sys.stderr)
    else:
        setups = [setup_s] + probe_setups(plan_path, SETUP_PROBES)
        stats = {
            "setup_s": summary(setups),
            "pass_s": summary(pass_walls),
            "peak_rss_mb": summary([peak_rss_mb]),
            "success_frac": summary([1.0 - failed / attempted]),
        }
        record["stats"] = stats
        metrics = {m: {"value": stats[m]["median"], "unit": unit} for m, unit, _, _ in END_TO_END}
    (workdir / f"run-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None, overrides: dict | None = None) -> int:
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "cylsim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cylsim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_probe:
            return setup_probe(args.setup_probe)
        if args.workload is None:
            p.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), overrides)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
