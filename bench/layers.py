"""Per-layer metrics of the traced run, derived from the tracer's spans.

Layers are the cylsim modules cli, circuits, czdec, sampler, oracle and
coarse.  A span's layer is the module part of its name.  Metrics marked "per
pass" are summed over one traced pass and reported as the median over traced
passes; "per call" metrics are medians over the traced calls.  A metric of a
layer that a workload does not exercise reads 0.

Left out on purpose: geometry is called per shot and per tensor entry, so
wrapping it would distort the traced run; pbs and purify finish in
milliseconds, so no workload can show a gain in them.
"""

from __future__ import annotations

from statistics import median

from workloads import GRAPHS, CoarseBracket, CompareDense, SampleLong

SAMPLE_CIRCUITS = tuple(dict.fromkeys([*SampleLong.circuits, *CompareDense.circuits]))
ORACLE_SIZES = tuple(sorted({GRAPHS[c][0] for c in CompareDense.circuits}))
BLOCKS = CoarseBracket.blocks


def spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = [
        ("cli.self_s", "s", "lower"),
        ("czdec.build_decomposition_s", "s", "lower"),
        ("czdec.lp_calls", "count", "lower"),
        ("czdec.rep_branches", "count", "lower"),
        ("sampler.busy_s.t1", "s", "lower"),
        ("sampler.busy_s.t2", "s", "lower"),
        ("sampler.shots_per_s.t1", "1/s", "higher"),
        ("sampler.shots_per_s.t2", "1/s", "higher"),
    ]
    out += [(f"sampler.shots_per_s.{c}", "1/s", "higher") for c in SAMPLE_CIRCUITS]
    out += [
        ("sampler.cz_per_s", "1/s", "higher"),
        ("sampler.par_efficiency", "frac", "higher"),
        ("sampler.check_simulable_calls", "count", "lower"),
        ("sampler.share.compare", "frac", "lower"),
        ("circuits.to_json_calls", "count", "lower"),
    ]
    for n in ORACLE_SIZES:
        out += [
            (f"oracle.exact_s.n{n}", "s", "lower"),
            (f"oracle.dense_output_s.n{n}", "s", "lower"),
            (f"oracle.dense_bytes.n{n}", "B", "lower"),
        ]
    out.append(("oracle.share.compare", "frac", "lower"))
    for b in BLOCKS:
        out += [
            (f"coarse.s_estimate_s.{b}", "s", "lower"),
            (f"coarse.coeff_tensor_s.{b}", "s", "lower"),
            (f"coarse.coeff_tensor_bytes.{b}", "B", "lower"),
            (f"coarse.width.{b}", "frac", "lower"),
            (f"coarse.cert_grid.{b}", "count", "higher"),
        ]
    out += [
        ("coarse.width.max", "frac", "lower"),
        ("coarse.block_value_calls", "count", "lower"),
        ("coarse.block_prob_contraction_calls", "count", "lower"),
        ("coarse.block_prob_contraction_s", "s", "lower"),
        ("coarse.witness_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return out


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, records, rep_branches: int) -> dict[str, float]:
    """Value of every per-layer metric from the spans and operation records.

    records: the run's operation Records; a span's op field indexes them,
    and spans recorded during set-up have op -1.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    traced = sorted({r.pass_idx for r in records if r.traced})
    by_pass = {p: [] for p in traced}
    for i, s in enumerate(spans):
        if s[5] >= 0 and records[s[5]].pass_idx in by_pass:
            by_pass[records[s[5]].pass_idx].append(i)
    whole_run = range(len(spans))
    SP = "sampler.sample_parallel"

    def dur(i):
        return spans[i][3] - spans[i][2]

    def idx(pool, name, tag=None):
        return [i for i in pool if spans[i][0] == name and (tag is None or spans[i][1] == tag)]

    def busy(pool, name, tag=None):
        return sum(dur(i) for i in idx(pool, name, tag))

    def per_pass(fn):
        return _med(fn(p, by_pass[p]) for p in traced)

    def sampled(p, threads=None):
        return [r for r in records if r.pass_idx == p and r.op.shots
                and (threads is None or r.op.threads == threads)]

    def shots(p, threads=None, c=None):
        return sum(r.op.shots for r in sampled(p, threads) if c is None or r.op.input == c)

    def compare_wall(p):
        return sum(r.wall for r in records if r.pass_idx == p and r.op.kind == "compare")

    def circuit_busy(pool, c):
        return sum(dur(i) for i in idx(pool, SP, "t1") if records[spans[i][5]].op.input == c)

    v: dict[str, float] = {}
    v["cli.self_s"] = per_pass(lambda p, pool: sum(selfs[i] for i in idx(pool, "cli.main")))
    v["czdec.build_decomposition_s"] = busy(whole_run, "czdec.build_decomposition")
    v["czdec.lp_calls"] = len(idx(whole_run, "czdec.lp_feasibility"))
    v["czdec.rep_branches"] = rep_branches
    for t in (1, 2):
        v[f"sampler.busy_s.t{t}"] = per_pass(lambda p, pool, t=t: busy(pool, SP, f"t{t}"))
    for t in (1, 2):
        v[f"sampler.shots_per_s.t{t}"] = per_pass(
            lambda p, pool, t=t: _ratio(shots(p, t), busy(pool, SP, f"t{t}")))
    for c in SAMPLE_CIRCUITS:
        v[f"sampler.shots_per_s.{c}"] = per_pass(
            lambda p, pool, c=c: _ratio(shots(p, 1, c), circuit_busy(pool, c)))
    v["sampler.cz_per_s"] = per_pass(lambda p, pool: _ratio(
        sum(r.op.shots * len(GRAPHS[r.op.input][1]) for r in sampled(p, 1)), busy(pool, SP, "t1")))
    v["sampler.par_efficiency"] = _ratio(
        v["sampler.shots_per_s.t2"], 2.0 * v["sampler.shots_per_s.t1"])
    v["sampler.check_simulable_calls"] = per_pass(
        lambda p, pool: _ratio(len(idx(pool, "sampler.check_simulable")), len(sampled(p))))
    v["sampler.share.compare"] = per_pass(
        lambda p, pool: _ratio(busy(pool, SP), compare_wall(p)))
    v["circuits.to_json_calls"] = per_pass(
        lambda p, pool: _ratio(len(idx(pool, "circuits.to_json")), len(sampled(p))))

    traced_spans = [i for p in traced for i in by_pass[p]]
    for n in ORACLE_SIZES:
        exact = idx(traced_spans, "oracle.exact_distribution", f"n{n}")
        v[f"oracle.exact_s.n{n}"] = _med(dur(i) for i in exact)
        v[f"oracle.dense_output_s.n{n}"] = _med(
            dur(i) for i in idx(traced_spans, "oracle.dense_output", f"n{n}"))
        v[f"oracle.dense_bytes.n{n}"] = 16 * 4**n if exact else 0
    v["oracle.share.compare"] = per_pass(
        lambda p, pool: _ratio(busy(pool, "oracle.exact_distribution"), compare_wall(p)))

    widths = []
    for b in BLOCKS:
        h, w = map(int, b.split("x"))
        v[f"coarse.s_estimate_s.{b}"] = _med(
            dur(i) for i in idx(traced_spans, "coarse.s_estimate", b))
        cold = idx(whole_run, "coarse.coeff_tensor", b)
        v[f"coarse.coeff_tensor_s.{b}"] = dur(cold[0]) if cold else 0.0
        v[f"coarse.coeff_tensor_bytes.{b}"] = 8 * 3 ** (h * w) if cold else 0
        out = next((r.output for r in records if r.op.kind == "coarse" and r.op.input == b
                    and r.output is not None), None)
        widths.append((out[1] - out[0]) / out[1] if out else 0.0)
        v[f"coarse.width.{b}"] = widths[-1]
        v[f"coarse.cert_grid.{b}"] = out[2] if out else 0
    v["coarse.width.max"] = max(widths)
    v["coarse.block_value_calls"] = per_pass(lambda p, pool: len(idx(pool, "coarse.block_value")))
    v["coarse.block_prob_contraction_calls"] = per_pass(
        lambda p, pool: len(idx(pool, "coarse.block_prob_contraction")))
    v["coarse.block_prob_contraction_s"] = per_pass(
        lambda p, pool: busy(pool, "coarse.block_prob_contraction"))
    v["coarse.witness_s"] = per_pass(
        lambda p, pool: busy(pool, "coarse.find_negativity_witness"))

    # pass 0 also pays first-call costs, so it is left out when another
    # untraced pass exists
    untraced = sorted({r.pass_idx for r in records if not r.traced})
    if len(untraced) > 1:
        untraced = untraced[1:]
    walls = {p: sum(r.wall for r in records if r.pass_idx == p) for p in traced + untraced}
    v["trace.overhead_frac"] = (
        _ratio(_med(walls[p] for p in traced), _med(walls[p] for p in untraced)) - 1.0
        if untraced else 0.0
    )
    return v
