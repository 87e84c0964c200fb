"""Command-line front end.

Subcommands: sample, compare, lemma1, coarse, purify, pbs-verify.  Exit
codes: 0 success, 2 non-simulable circuit, 3 resource cap exceeded, 1 any
other error, usage errors included.  Each refusal is an exception raised
before any work by the module that owns its rule, and main alone maps
exceptions to exit codes: sampler.NotSimulable to 2, and
oracle.DenseTooLarge, sampler.TooManyShots and coarse.BlockTooLarge to 3.
compare has oracle.admit check its circuit before it samples, and prints the
TV distance to the exact distribution, the support K (outcomes of positive
exact mass), the sampling bound oracle.tv_bound over K and whether the TV
distance lies within it, from the tables' arrays, formatting no outcome
string.  sample writes its CSV from the table's bitstrings.  Stochastic
commands require --seed and echo a provenance JSON sufficient to reproduce
their output bit-exactly; coarse, purify and pbs-verify print their result
JSON and write it to --out, if given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import coarse, oracle, pbs, purify, sampler
from .circuits import ClusterCircuit
from .czdec import LAMBDA, DecompositionError, ppt_determinants, separability_condition

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_SIMULABLE = 2
EXIT_RESOURCE_CAP = 3


def _write_counts_csv(path: str, counts: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("bitstring,count\n")
        for key in sorted(counts):
            f.write(f"{key},{counts[key]}\n")


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def _report(args: argparse.Namespace, result: dict) -> None:
    """Print result as JSON and write it to --out, if given."""
    print(json.dumps(result))
    if args.out:
        _write_json(args.out, result)


def _provenance(args: argparse.Namespace, extra: dict) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return {"config": cfg, **extra}


def _read_circuit(path: str) -> ClusterCircuit:
    with open(path, encoding="utf-8") as f:
        return ClusterCircuit.from_json(f.read())


def cmd_sample(args: argparse.Namespace) -> int:
    c = _read_circuit(args.circuit)
    rep = sampler.default_rep(args.growth_margin)
    counts = sampler.sample_parallel(c, args.shots, args.seed, rep, args.threads)
    _write_counts_csv(args.out, counts.as_dict())
    _write_json(
        args.out + ".provenance.json",
        _provenance(
            args,
            {
                "growth": rep.growth,
                "representation": {"growth": rep.growth, "branches": len(rep.branches),
                                   "residual": rep.residual, "source": rep.source},
                "simulable": True,
                "vertex_bounds": [
                    {"vertex": v.vertex, "status": v.status} if v.bound is None else
                    {"vertex": v.vertex, "degree": v.degree, "bound": v.bound}
                    for v in sampler.check_simulable(c, rep.growth).vertices
                ],
            },
        ),
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    if args.shots < 1:
        raise ValueError(f"compare needs --shots >= 1, got {args.shots}")
    c = _read_circuit(args.circuit)
    oracle.admit(c)
    rep = sampler.default_rep(args.growth_margin)
    counts = sampler.sample_parallel(c, args.shots, args.seed, rep, args.threads)
    dist = oracle.exact_distribution(c)
    tv = oracle.tv_distance(oracle.normalize_counts(counts), dist)
    support = int(np.count_nonzero(dist.mass > 0.0))
    bound = oracle.tv_bound(args.shots, support)
    result = {"tv": tv, "shots": args.shots, "support": support, "tv_bound": bound,
              "within_bound": tv <= bound}
    _write_json(args.out, _provenance(args, result))
    print(json.dumps(result))
    return EXIT_OK


def cmd_lemma1(args: argparse.Namespace) -> int:
    inner, outer = ppt_determinants(1.0 / LAMBDA, 1.0 / LAMBDA)
    result = {
        "lambda": f"{LAMBDA:.12f}",
        "lambda_pow_minus_4": LAMBDA**-4,
        "outer_determinant_at_critical": outer,
        "inner_determinant_at_critical": inner,
        "separable_at_critical": separability_condition(1.0, 1.0, LAMBDA, LAMBDA),
    }
    print(f"lambda = {LAMBDA:.12f}")
    if args.out:
        _write_json(args.out, result)
    return EXIT_OK


def cmd_coarse(args: argparse.Namespace) -> int:
    try:
        h, w = (int(x) for x in args.block.lower().split("x"))
    except ValueError:
        raise ValueError(f"--block must look like HxW, e.g. 2x2, got {args.block!r}") from None
    block = coarse.BlockSpec(h, w, args.mode)
    est = coarse.s_estimate(block, theta_grid=args.grid, bisect_tol=args.bisect_tol)
    result = {
        "block": f"{h}x{w}",
        "mode": args.mode,
        "r_lower": est.lower,
        "r_upper": est.upper,
        "grid": est.theta_grid,
        "certified_grid": est.cert_grid,
        "cert_inflation": est.cert_inflation,
        "scan_group_order": est.scan_group_order,
        "scan_points": est.scan_points,
        "cert_rounding_bound": est.cert_rounding_bound,
        "lower_screen": est.lower_screen,
        "witness_assignment": list(est.witness) if est.witness else None,
        "search_capped": est.capped,
        "probes": [p._asdict() for p in est.probes],
    }
    _report(args, result)
    return EXIT_OK


def cmd_purify(args: argparse.Namespace) -> int:
    try:
        angles = tuple(float(a) * math.pi for a in args.angles.split(","))
        if not all(map(math.isfinite, angles)):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"--angles must be finite numbers in units of pi, e.g. 0.18,0.32, got {args.angles!r}"
        ) from None
    protocol = purify.ChainProtocol(angles)
    p_site = purify.site_success_prob(protocol)
    result = {
        "angles": list(angles),
        "p_site": p_site,
        "r_max": protocol.r_max(),
        "verdict": purify.percolation_verdict(p_site),
    }
    _report(args, result)
    return EXIT_OK


def cmd_pbs_verify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    checks = []
    for d in (2, 3, 4):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = 0.5 * (m + m.conj().T)
        rho = rho / np.trace(rho)
        g1, g2 = pbs.offdiag_identity_check(rho)
        checks.append(
            {"d": d, "gap1": float(g1), "gap2": float(g2), "pass": bool(max(g1, g2) <= 1e-12)}
        )
    recon = []
    for n in (2, 3):
        for d in (2, 3):
            coeff = complex(rng.normal() * 0.1, rng.normal() * 0.1)
            x = (1,) * n
            y = (0,) * n
            dec = pbs.phase_decompose(d, (0,) * n, x, y, coeff, W=3.0)
            gap = float(np.max(np.abs(dec.reconstruct() - dec.target())))
            recon.append({"d": d, "N": n, "gap": gap, "pass": gap <= 1e-10})
    failed = [f"identity d={c['d']}" for c in checks if not c["pass"]]
    failed += [f"reconstruction d={r['d']} N={r['N']}" for r in recon if not r["pass"]]
    result = {"identities": checks, "reconstructions": recon, "all_pass": not failed}
    _report(args, result)
    if failed:
        raise ValueError(f"pbs-verify checks failed: {', '.join(failed)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cylsim")
    sub = p.add_subparsers(dest="command", required=True)

    def sampling(name, summary, func, **shots):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--circuit", required=True)
        sp.add_argument("--shots", type=int, **shots)
        sp.add_argument("--growth-margin", type=float, default=sampler.DEFAULT_GROWTH_MARGIN)
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--out", type=str, required=True)
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        sp.set_defaults(func=func)

    sampling("sample", "sample a circuit to CSV", cmd_sample, required=True)
    sampling("compare", "sampler vs exact oracle TV distance", cmd_compare, default=100000)

    sp = sub.add_parser("lemma1", help="print the critical growth constant")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_lemma1)

    sp = sub.add_parser("coarse", help="bracket a block threshold radius")
    sp.add_argument("--block", required=True, help="HxW, e.g. 2x2")
    sp.add_argument("--mode", choices=[coarse.PLAIN, coarse.LAMBDA_GROWN], default=coarse.PLAIN)
    sp.add_argument("--grid", type=int, default=32)
    sp.add_argument("--bisect-tol", type=float, default=1e-4)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_coarse)

    sp = sub.add_parser("purify", help="chain steering success probability")
    sp.add_argument("--angles", type=str, default="0.18,0.32,0.31", help="comma list, units of pi")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_purify)

    sp = sub.add_parser("pbs-verify", help="qudit identity and decomposition checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_pbs_verify)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # after help (code 0) or a usage error; 2 means non-simulable
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except sampler.NotSimulable as exc:
        print(exc, file=sys.stderr)
        return EXIT_NOT_SIMULABLE
    except (coarse.BlockTooLarge, sampler.TooManyShots, oracle.DenseTooLarge) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except (ValueError, OSError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
