"""Command-line interface over the library.

Every subcommand is deterministic given its full flag set (including
--seed) and emits a machine-readable report on stdout, JSON by default or
CSV with ``--format csv``.  Exit codes: 0 on success, 2 on validation
errors (reported as JSON objects on stderr), 3 when an identity check
exceeds its tolerance, which makes the identity subcommands usable as CI
gates.  Floats are printed in full precision: JSON uses shortest
round-trip representations and CSV uses 17 significant digits, so emitted
distributions can be fed back to reproduce the same values to the last ulp.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from fractions import Fraction
from math import factorial

import numpy as np

from .genpoly import (Distribution, enumerate_independent_ksets, eval_F, eval_h,
                      gaps_from_uniform, hessian_f, DEFAULT_ENUM_CAP)
from .matroids import ProjectiveSpec, _ints, build_matroid, spec_from_json, spec_to_json
from .optimize import AscentConfig, maximize_F
from .montecarlo import estimate_F
from .projective import (PGParams, VectorDistribution, _scan_samples, b2_count,
                         b2_explicit, hessian_coefficient, pushforward, stability_scan,
                         uniform_optimum)
from .streams import trial_uniforms
from .symmetry import Permutation, is_transitive, orbit_average, orbits


class ToleranceFailure(Exception):
    """An identity or bound check exceeded its tolerance (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str):
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _load_json(source: str, what: str):
    """Inline JSON (starting with ``{`` or ``[``) or the JSON file at a path."""
    text = source.strip()
    if not text.startswith(("{", "[")):
        if not os.path.exists(source):
            raise ValueError(f"no such file: {source}")
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid {what} JSON: {exc}") from exc


def _load_spec(source: str):
    return spec_from_json(_load_json(source, "spec"))


def _load_dist(source: str, m: int) -> Distribution:
    if source.strip().lower() == "uniform":
        return Distribution.uniform(m)
    data = _load_json(source, "distribution")
    if not isinstance(data, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in data):
        raise ValueError("a distribution must be a JSON array of probabilities")
    if len(data) != m:
        raise ValueError(f"distribution has length {len(data)}, expected {m}")
    return Distribution(np.asarray(data, dtype=float))


def _load_gens(source: str, m: int) -> list[Permutation]:
    data = _load_json(source, "generators")
    if not isinstance(data, list) or not data:
        raise ValueError("generators must be a nonempty JSON array of image arrays")
    gens = [Permutation.from_json(img) for img in _ints(data, "generator image", 2)]
    for g in gens:
        if g.m != m:
            raise ValueError(f"generator acts on {g.m} elements, ground set has {m}")
    return gens


def _flatten(report: dict, prefix: str = ""):
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, prefix=f"{name}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                yield name, str(i), _fmt(item)
        else:
            yield name, "", _fmt(value)


def _write_report(report: dict, args):
    if args.format == "csv":
        lines = ["key,index,value"]
        lines += [f"{k},{i},{v}" for k, i, v in _flatten(report)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _build(args):
    spec = _load_spec(args.spec)
    matroid = build_matroid(spec)
    if args.k is None:
        return spec, matroid, None
    idx = enumerate_independent_ksets(matroid, args.k, cap=args.enum_cap)
    return spec, matroid, idx


def _projective(spec) -> ProjectiveSpec:
    """The spec, if it is a projective geometry (the closed forms hold only there)."""
    if not isinstance(spec, ProjectiveSpec):
        raise ValueError("this subcommand needs a projective matroid spec")
    return spec


def cmd_info(args) -> dict:
    spec, matroid, idx = _build(args)
    report = {
        "spec": spec_to_json(spec),
        "m": matroid.m,
        "rank": matroid.rank,
    }
    if idx is not None:
        report["k"] = args.k
        report["n_independent_ksets"] = idx.n_sets
    if args.gens:
        gens = _load_gens(args.gens, matroid.m)
        report["orbits"] = orbits(gens)
        report["transitive"] = is_transitive(gens)
    return report


def cmd_eval(args) -> dict:
    spec, matroid, idx = _build(args)
    dist = _load_dist(args.dist, matroid.m)
    value = eval_F(idx, dist)
    report = {
        "spec": spec_to_json(spec),
        "k": args.k,
        "F": value,
    }
    if args.dist.strip().lower() == "uniform":
        with suppress(ValueError):  # the exact optimum is known on PG(n-1, q) only
            pg = _projective(spec)
            report["F_rational"] = _rational(uniform_optimum(PGParams(pg.n, pg.q, args.k)))
    return report


def cmd_exact_uniform(args) -> dict:
    spec = _projective(_load_spec(args.spec))
    params = PGParams(spec.n, spec.q, args.k)
    exact = uniform_optimum(params)
    return {
        "n": params.n, "q": params.q, "k": params.k, "m": params.m,
        "F_rational": _rational(exact),
        "F": float(exact),
    }


def cmd_optimize(args) -> dict:
    spec, matroid, idx = _build(args)
    cfg = AscentConfig(
        step_size=args.step,
        max_iters=args.iters,
        tol_grad=args.tol,
        start=_load_dist(args.dist, matroid.m),
    )
    result = maximize_F(idx, cfg)
    report = {"spec": spec_to_json(spec), "k": args.k}
    report.update(result.to_json())
    return report


def cmd_mc(args) -> dict:
    spec = _load_spec(args.spec)
    matroid = build_matroid(spec)
    dist = _load_dist(args.dist, matroid.m)
    # enumerate the exact reference first: an over-cap request fails before simulating
    idx = None
    if 1 <= args.k <= matroid.rank:
        idx = enumerate_independent_ksets(matroid, args.k, cap=args.enum_cap)
    est = estimate_F(matroid, dist, args.k, args.trials, seed=args.seed)
    report = {"spec": spec_to_json(spec), "k": args.k}
    report.update(est.to_json())
    if idx is not None:
        report["exact_F"] = eval_F(idx, dist)
    return report


def cmd_scan(args) -> dict:
    spec, matroid, idx = _build(args)
    scan = stability_scan(idx, n_samples=args.samples, seed=args.seed, mode=args.mode)
    report = {"spec": spec_to_json(spec), "k": args.k}
    report.update(scan.to_json())
    if scan.nonunique_maximizer_detected:
        report["note"] = "nonunique maximizer detected (stability ratio near zero)"
    return report


def cmd_k2check(args) -> dict:
    spec, matroid, idx = _build(args)
    if args.k != 2:
        raise ValueError("the K=2 identity check needs --k 2")
    _projective(spec)  # the identity is exact only on projective geometries
    pts = _scan_samples(args.seed, 0, args.samples, matroid.m, "dirichlet")
    gaps, norm2 = gaps_from_uniform(idx, pts)
    worst = float(np.max(np.abs(gaps - norm2), initial=0.0))
    report = {
        "spec": spec_to_json(spec),
        "n_samples": args.samples,
        "seed": args.seed,
        "max_residual": worst,
        "tol": args.tol,
        "pass": worst <= args.tol,
    }
    if worst > args.tol:
        raise ToleranceFailure(json.dumps(report))
    return report


def cmd_hesscheck(args) -> dict:
    # v^T H v = -c on unit zero-sum directions v at u, exactly and as the symmetric
    # difference (F(u + tv) - 2F(u) + F(u - tv)) / t^2 = -(gap(u + tv) + gap(u - tv)) / t^2
    spec, matroid, idx = _build(args)
    pg = _projective(spec)
    params = PGParams(pg.n, pg.q, args.k)
    coefficient = hessian_coefficient(params)
    coef = float(coefficient)
    b2 = b2_explicit(params)
    m, t = matroid.m, 1e-3
    dirs = trial_uniforms(args.seed, 0, args.samples, m)
    dirs -= dirs.mean(axis=1, keepdims=True)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    hess = factorial(args.k) * hessian_f(idx, np.full(m, 1.0 / m))
    quad = np.einsum("ij,jk,ik->i", dirs, hess, dirs)
    gaps, _ = gaps_from_uniform(idx, np.concatenate([1.0 / m + t * dirs, 1.0 / m - t * dirs]))
    fd = -(gaps[:args.samples] + gaps[args.samples:]) / t**2
    worst_exact = float(np.max(np.abs(quad + coef), initial=0.0)) / coef
    worst_fd = float(np.max(np.abs(fd + coef), initial=0.0)) / coef
    b2_enum = b2_count(idx, 0, 1)
    report = {
        "spec": spec_to_json(spec),
        "k": args.k,
        "coefficient_rational": _rational(coefficient),
        "coefficient": coef,
        "b2_rational": _rational(b2),
        "b2_count": b2_enum,
        "n_vectors": args.samples,
        "max_relative_error_exact": worst_exact,
        "max_relative_error_fd": worst_fd,
        "tol": args.tol,
        "pass": worst_exact <= args.tol and b2_enum == b2,
    }
    if not report["pass"]:
        raise ToleranceFailure(json.dumps(report))
    return report


def cmd_orbitavg(args) -> dict:
    spec, matroid, idx = _build(args)
    dist = _load_dist(args.dist, matroid.m)
    gens = _load_gens(args.gens, matroid.m)
    averaged = orbit_average(gens, dist)
    h_before = eval_h(idx, dist)
    h_after = eval_h(idx, averaged)
    report = {
        "spec": spec_to_json(spec),
        "k": args.k,
        "orbits": orbits(gens),
        "transitive": is_transitive(gens),
        "p": dist.probs.tolist(),
        "averaged": averaged.probs.tolist(),
        "h_before": h_before,
        "h_after": h_after,
        "monotone": h_after >= h_before - args.tol,
    }
    if not report["monotone"]:
        raise ToleranceFailure(json.dumps(report))
    return report


def cmd_pushforward(args) -> dict:
    spec = _projective(_load_spec(args.spec))
    count = spec.q**spec.n - 1  # nonzero vectors, read like points by _load_dist
    vec = VectorDistribution(_load_dist(args.dist, count).probs, spec.n, spec.q)
    projected = pushforward(vec)
    report = {
        "spec": spec_to_json(spec),
        "n_vectors": count,
        "pushforward": projected.probs.tolist(),
    }
    if args.k is not None:
        idx = enumerate_independent_ksets(build_matroid(spec), args.k, cap=args.enum_cap)
        report["k"] = args.k
        report["F"] = eval_F(idx, projected)
        report["F_uniform_rational"] = _rational(uniform_optimum(PGParams(spec.n, spec.q, args.k)))
    return report


def _add_common(sub, k_required=True, dist=False, gens=False, seed=False, tol=None,
                enum_cap=True):
    """Flags shared by the subcommands; each declares only what its handler reads."""
    sub.add_argument("--spec", required=True,
                     help="matroid spec: inline JSON or a path to a JSON file")
    if k_required:
        sub.add_argument("--k", type=int, required=True, help="number of i.i.d. draws")
    else:
        sub.add_argument("--k", type=int, default=None, help="number of i.i.d. draws")
    if dist:
        sub.add_argument("--dist", default="uniform",
                         help='"uniform", inline JSON array, or a path to one')
    if gens:
        sub.add_argument("--gens", required=True,
                         help="JSON array of permutation image arrays (inline or path)")
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="write the report to this file")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if enum_cap:
        sub.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                         help="abort if the independent-set enumeration exceeds this count")
    if tol is not None:
        sub.add_argument("--tol", type=float, default=tol,
                         help="tolerance (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matroid-sampling",
                     description="Independence probabilities of i.i.d. samples on matroids.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("info", help="ground size, rank, independent K-set count")
    _add_common(sub, k_required=False)
    sub.add_argument("--gens", default=None,
                     help="JSON array of permutation image arrays (reports orbits/transitivity)")
    sub.set_defaults(handler=cmd_info)

    sub = subs.add_parser("eval", help="evaluate the independence probability F at a distribution")
    _add_common(sub, dist=True)
    sub.set_defaults(handler=cmd_eval)

    sub = subs.add_parser("exact-uniform", help="exact rational optimum on a projective geometry")
    _add_common(sub, enum_cap=False)
    sub.set_defaults(handler=cmd_exact_uniform)

    sub = subs.add_parser("optimize", help="maximize F over the simplex by multiplicative ascent")
    _add_common(sub, dist=True, tol=1e-10)
    sub.add_argument("--step", type=float, default=0.5)
    sub.add_argument("--iters", type=int, default=10_000)
    sub.set_defaults(handler=cmd_optimize)

    sub = subs.add_parser("mc", help="Monte Carlo estimate of F")
    _add_common(sub, dist=True, seed=True)
    sub.add_argument("--trials", type=int, default=100_000)
    sub.set_defaults(handler=cmd_mc)

    sub = subs.add_parser("scan", help="stability-ratio scan over random simplex points")
    _add_common(sub, seed=True)
    sub.add_argument("--samples", type=int, default=10_000)
    sub.add_argument("--mode", choices=("dirichlet", "sparse"), default="dirichlet")
    sub.set_defaults(handler=cmd_scan)

    sub = subs.add_parser("k2check", help="exact K=2 gap identity check (exit 3 on failure)")
    _add_common(sub, seed=True, tol=1e-12)
    sub.add_argument("--samples", type=int, default=100)
    sub.set_defaults(handler=cmd_k2check)

    sub = subs.add_parser("hesscheck", help="Hessian coefficient check at the uniform point")
    _add_common(sub, seed=True, tol=1e-10)
    sub.add_argument("--samples", type=int, default=50)
    sub.set_defaults(handler=cmd_hesscheck)

    sub = subs.add_parser("orbitavg", help="orbit-average a distribution; checks monotonicity")
    _add_common(sub, dist=True, gens=True, tol=1e-9)
    sub.set_defaults(handler=cmd_orbitavg)

    sub = subs.add_parser("pushforward", help="project a vector distribution to projective points")
    _add_common(sub, k_required=False, dist=True)
    sub.set_defaults(handler=cmd_pushforward)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except ToleranceFailure as exc:
        _emit_error("ToleranceFailure", "identity check exceeded tolerance")
        sys.stdout.write(str(exc) + "\n")
        return 3
    except (ValueError, ZeroDivisionError, OSError) as exc:
        _emit_error("ValidationError", str(exc))
        return 2
    _write_report(report, args)
    return 0


def cli_main():
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
