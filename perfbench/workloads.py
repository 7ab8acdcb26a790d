"""The benchmark's four workloads, their inputs and their exact references.

Each workload is a closed loop with one client: a *round* issues a fixed
set of requests one after another, each waiting for the previous one, and
``run.py`` repeats rounds until its time budget is spent.  Every round of a
run issues the same requests, so its determinism fingerprint must equal the
first round's.  All inputs (starting points, distributions, Monte Carlo and
scan seeds, matrices, CLI arguments) are generated here from the workload
seed; the package sees only those generated inputs.

The package is called through its module attributes at call time
(``optimize.maximize_F``, not a name imported here), so that a traced run
can rebind those attributes without this file knowing about it.

References are computed here in exact arithmetic, independently of the
package's own closed forms.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, sqrt
from statistics import median
from time import perf_counter

import numpy as np
from numpy.random import Generator, Philox

from matroid_sampling import cli, genpoly, matroids, montecarlo, optimize, projective, symmetry
from matroid_sampling.fields import FieldMatrix, PrimeField

TOL_GRAD = 1e-10          # ascent stopping rule: time to a solution of this accuracy
ASCENT_F_TOL = 1e-9       # |F(ascent result) - F(u)|
ASCENT_P_TOL = 1e-6       # max_e |p_e - 1/m| at the ascent result
HESSIAN_REL_TOL = 1e-10   # relative error of v^T H v / |v|^2 against -c
MC_SIGMAS = 4.0           # Monte Carlo checks allow this many standard errors


# ---------------------------------------------------------------- references

def bracket(j: int, q: int) -> int:
    """[j]_q, the number of points of PG(j-1, q)."""
    return (q**j - 1) // (q - 1)


def pg_optimum(n: int, q: int, k: int) -> Fraction:
    """F(u) on PG(n-1, q): prod_{j<k} (m - [j]_q) / m."""
    m = bracket(n, q)
    value = Fraction(1)
    for j in range(k):
        value *= Fraction(m - bracket(j, q), m)
    return value


def pg_kset_count(n: int, q: int, k: int) -> int:
    """Independent k-sets of PG(n-1, q): prod_{j<k} (m - [j]_q) / k!."""
    m = bracket(n, q)
    count = 1
    for j in range(k):
        count *= m - bracket(j, q)
    return count // factorial(k)


def pg_pair_count(n: int, q: int, k: int) -> int:
    """B2, the independent k-sets through a fixed pair of points."""
    m = bracket(n, q)
    count = 1
    for j in range(2, k):
        count *= m - bracket(j, q)
    return count // factorial(k - 2)


def pg_hessian_coefficient(n: int, q: int, k: int) -> Fraction:
    """c with v^T Hess F(u) v = -c |v|^2 on zero-sum v: k! B2 / m^(k-2)."""
    return factorial(k) * Fraction(pg_pair_count(n, q, k), bracket(n, q) ** (k - 2))


def uniform_optimum(n: int, k: int) -> Fraction:
    """F(u) on U(r, n) for k <= r: k! C(n, k) / n^k."""
    return Fraction(factorial(k) * comb(n, k), n**k)


def uniform_hessian_coefficient(n: int, k: int) -> Fraction:
    """c on U(r, n): k! C(n-2, k-2) / n^(k-2)."""
    return Fraction(factorial(k) * comb(n - 2, k - 2), n ** (k - 2))


def k2_law(probs: np.ndarray) -> float:
    """F(p) for K = 2 on any PG(n-1, q): F(u) - |p - u|^2 = (m-1)/m - |p - u|^2."""
    m = probs.size
    diff = probs - 1.0 / m
    return (m - 1) / m - float(diff @ diff)


def mc_counts(probs, k: int, n_trials: int, seed: int, chunk: int) -> tuple[int, int]:
    """(trials whose k draws are distinct, distinct sets summed over chunks).

    Recomputed from the stream contract (trial t owns Philox blocks
    t*ceil(k/4) onward, keyed by the seed) and inverse-CDF draws, without
    the package.  The second count is the number of oracle calls that a
    per-chunk dedupe needs.
    """
    cumulative = np.cumsum(probs)
    m = cumulative.size
    blocks = -(-k // 4)
    candidates = distinct = 0
    for start in range(0, n_trials, chunk):
        count = min(chunk, n_trials - start)
        gen = Generator(Philox(key=int(seed), counter=start * blocks))
        u = gen.random(count * blocks * 4).reshape(count, blocks * 4)[:, :k]
        draws = np.minimum(np.searchsorted(cumulative, u, side="left"), m - 1)
        draws.sort(axis=1)
        rows = draws[np.all(np.diff(draws, axis=1) > 0, axis=1)]
        candidates += rows.shape[0]
        keys = rows @ (m ** np.arange(k, dtype=np.int64))
        distinct += np.unique(keys).size
    return candidates, distinct


# ------------------------------------------------------------------- checks

class Checks:
    """Counts correctness checks attempted and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def true(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)
        return ok

    def close(self, name: str, got: float, want: float, tol: float) -> bool:
        ok = bool(np.isfinite(got)) and abs(got - want) <= tol
        return self.true(name, ok, f"got {got!r}, want {want!r} within {tol!r}")

    def equal(self, name: str, got, want) -> bool:
        return self.true(name, got == want, f"got {got!r}, want {want!r}")


def digest(data) -> str:
    """Short sha256 of an array's bytes or of canonical JSON."""
    if isinstance(data, np.ndarray):
        raw = np.ascontiguousarray(data).tobytes()
    else:
        raw = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def seeds(seed: int, count: int) -> list[int]:
    """Independent 32-bit sub-seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, 1]).generate_state(count)]


def dirichlet(rng: np.random.Generator, m: int) -> genpoly.Distribution:
    return genpoly.Distribution(rng.dirichlet(np.ones(m)), renormalize=True)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail(values: list[float]) -> dict | None:
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    best = None
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - pct) / 100.0 >= 10:
            best = {"value": nearest_rank(ordered, pct), "percentile": pct, "n": n}
    return best


# ------------------------------------------------------------------ timing

# On a shared 2-core Intel Xeon virtual machine the speed of compute-bound
# code switches between two levels (measured: 1.5-1.7x apart, in phases of
# 1 to 20 s), while memory-bound code such as the stability scan runs at the
# same speed in both.  A run's wall times therefore depend on how much of it
# fell into slow phases.  To
# make runs comparable, each compute-bound request is scaled to a reference
# speed: its wall time times REFERENCE_CAL_S over the time a fixed
# calibration kernel took just before and just after it.  Raw wall times are
# kept alongside.
REFERENCE_CAL_S = 1.5e-3
_CAL_SETS = (np.arange(4 * 2048, dtype=np.int64) * 7919 % 31).reshape(-1, 4)
_CAL_X = np.linspace(0.01, 0.05, 31)


def calibration_s() -> float:
    """Best of three runs of a fixed kernel: numpy gathers and products like
    the package's evaluators, then a pure-Python loop like its oracles."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(8):
            np.prod(_CAL_X[_CAL_SETS], axis=1).sum()
        acc = 0
        for i in range(10_000):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best


class Timer:
    """Times each request of a run, in wall seconds and in reference seconds."""

    def __init__(self):
        self.samples: list[tuple[str, int, float, float]] = []  # kind, size, raw s, ref s
        self._speed = calibration_s()

    def call(self, kind: str, size: int, fn, *args, scaled: bool = True):
        before = self._speed
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        self._speed = calibration_s()
        factor = 2.0 * REFERENCE_CAL_S / (before + self._speed) if scaled else 1.0
        self.samples.append((kind, size, raw, raw * factor))
        return result

    def times(self, kind: str | None = None, raw: bool = False) -> list[float]:
        return [r if raw else t for k, _, r, t in self.samples if kind is None or k == kind]

    def total(self, kind: str | None = None) -> tuple[int, float]:
        """(summed size, summed reference seconds) of one request kind, or all."""
        chosen = [(n, t) for k, n, _, t in self.samples if kind is None or k == kind]
        return sum(n for n, _ in chosen), sum(t for _, t in chosen)

    def summary(self) -> dict:
        """Per request kind: count, size, and median reference and raw seconds."""
        out = {}
        for kind in dict.fromkeys(k for k, _, _, _ in self.samples):
            out[kind] = {"n": len(self.times(kind)), "size": self.total(kind)[0],
                         "median_s": median(self.times(kind)),
                         "median_raw_s": median(self.times(kind, raw=True))}
        return out


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class AnalysisSize:
    family: str        # "pg": PG(a-1, b); "uniform": U(a, b)
    a: int
    b: int
    k: int
    ascents: int
    scan_samples: int
    hessian_vectors: int
    permutations: int  # GL(a, b) point permutations; 0 skips the symmetry step


class Analysis:
    """Exact analysis on one index: ascents, a stability scan, the Hessian at
    u and (on projective geometries) the GL(n, q) symmetry checks."""

    def __init__(self, size: AnalysisSize, seed: int):
        self.size = size
        if size.family == "pg":
            self.spec = matroids.ProjectiveSpec(size.a, size.b)
            self.m = bracket(size.a, size.b)
            self.F_star = pg_optimum(size.a, size.b, size.k)
            self.hess_coef = pg_hessian_coefficient(size.a, size.b, size.k)
        else:
            self.spec = matroids.UniformSpec(size.a, size.b)
            self.m = size.b
            self.F_star = uniform_optimum(size.b, size.k)
            self.hess_coef = uniform_hessian_coefficient(size.b, size.k)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        m = self.m
        self.starts = [dirichlet(rng, m) for _ in range(size.ascents)]
        vectors = rng.standard_normal((size.hessian_vectors, m))
        self.vectors = vectors - vectors.mean(axis=1, keepdims=True)
        self.scan_seed = seeds(seed, 1)[0]
        self.matrices = [random_invertible(rng, size.a, size.b) for _ in range(size.permutations)]
        self.sym_point = dirichlet(rng, m)

    def setup(self):
        self.matroid = matroids.build_matroid(self.spec)
        self.idx = genpoly.enumerate_independent_ksets(self.matroid, self.size.k)

    def round(self, checks: Checks, timer: Timer) -> dict:
        size, idx, m = self.size, self.idx, self.m
        checks.equal("index.n_sets", idx.n_sets, self.expected_sets())
        F_star = float(self.F_star)
        iterations = []
        for i, start in enumerate(self.starts):
            cfg = optimize.AscentConfig(tol_grad=TOL_GRAD, start=start)
            result = timer.call("ascent", 1, optimize.maximize_F, idx, cfg)
            checks.close(f"ascent[{i}].F", result.value, F_star, ASCENT_F_TOL)
            checks.close(f"ascent[{i}].p", float(np.max(np.abs(result.p.probs - 1.0 / m))),
                         0.0, ASCENT_P_TOL)
            iterations.append(result.iterations)

        scan = timer.call("scan", size.scan_samples, projective.stability_scan, idx,
                          size.scan_samples, self.scan_seed, scaled=False)
        checks.true("scan.unique", not scan.nonunique_maximizer_detected,
                    f"min_R={scan.min_ratio!r}")
        checks.equal("scan.skipped", scan.skipped, 0)

        coef = float(self.hess_coef)
        hess = factorial(size.k) * timer.call("hessian", 1, genpoly.hessian_f, idx,
                                              np.full(m, 1.0 / m))
        for i, v in enumerate(self.vectors):
            quad = float(v @ hess @ v) / float(v @ v)
            checks.close(f"hessian[{i}]", abs(quad + coef) / coef, 0.0, HESSIAN_REL_TOL)

        fingerprint = {"ascent_iterations": iterations,
                       "scan_min_R": float(scan.min_ratio).hex(),
                       "scan_argmin": digest(scan.argmin)}
        if self.matrices:
            fingerprint["symmetry"] = self.symmetry_round(checks, timer)
        return fingerprint

    def symmetry_calls(self):
        p = self.sym_point
        gens = [symmetry.pgl_point_permutation(a, self.matroid) for a in self.matrices]
        gaps = [symmetry.check_invariance(self.idx, g, p) for g in gens]
        averaged = symmetry.orbit_average(gens, p)
        h = (genpoly.eval_h(self.idx, p), genpoly.eval_h(self.idx, averaged))
        return gens, gaps, averaged, h

    def symmetry_round(self, checks: Checks, timer: Timer) -> str:
        gens, gaps, averaged, (h_before, h_after) = timer.call("symmetry", 1,
                                                               self.symmetry_calls)
        f_u = float(self.F_star) / factorial(self.size.k)
        for i, (g, gap) in enumerate(zip(gens, gaps)):
            checks.close(f"symmetry.invariance[{i}]", gap / f_u, 0.0, 1e-12)
            moved = symmetry.apply_to_distribution(g, averaged)
            checks.true(f"symmetry.average_fixed[{i}]",
                        np.array_equal(moved.probs, averaged.probs))
        checks.true("symmetry.average_monotone", h_after >= h_before - 1e-12,
                    f"h {h_before!r} -> {h_after!r}")
        return digest([g.to_json() for g in gens])

    def expected_sets(self) -> int:
        s = self.size
        if s.family == "pg":
            return pg_kset_count(s.a, s.b, s.k)
        return comb(s.b, s.k)

    def headline(self, timer: Timer) -> dict:
        ascent = median(timer.times("ascent"))
        samples = timer.total("scan")[0]
        rate = samples / sum(timer.times("scan", raw=True))
        return {"throughput_per_s": rate, "p50_ms": 1000.0 * ascent,
                "named": {"ascent_s": ascent, "scan_samples_per_s": rate}}

    def sizes(self) -> dict:
        s, idx = self.size, self.idx
        batch = min(s.scan_samples, scan_default_chunk())
        return {"instance": self.matroid.name, "m": self.m, "k": s.k,
                "n_sets": idx.n_sets, "index_bytes": int(idx.sets.nbytes),
                "scan_batch": batch,
                "scan_batch_bytes": batch * idx.n_sets * s.k * 8}


def scan_default_chunk() -> int:
    return inspect.signature(projective.stability_scan).parameters["chunk"].default


def random_invertible(rng: np.random.Generator, n: int, q: int) -> FieldMatrix:
    """P L U with L unit lower, U upper with nonzero diagonal: invertible over F_q."""
    lower = np.tril(rng.integers(0, q, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, q, (n, n)), 1) + np.diag(rng.integers(1, q, n))
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    return FieldMatrix((perm @ lower @ upper) % q, PrimeField(q))


@dataclass(frozen=True)
class McSize:
    n: int
    q: int
    k4_requests: int
    k2_requests: int
    trials: int  # per request


class MonteCarlo:
    """estimate_F on PG(n-1, q) without enumeration: K=4 at u and K=2 at a
    seeded Dirichlet p, each request ``trials`` long with its own seed."""

    def __init__(self, size: McSize, seed: int):
        self.size = size
        self.spec = matroids.ProjectiveSpec(size.n, size.q)
        self.m = bracket(size.n, size.q)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.u = genpoly.Distribution.uniform(self.m)
        self.p = dirichlet(rng, self.m)
        sub = seeds(seed, size.k4_requests + size.k2_requests)
        self.requests = ([(4, self.u, s) for s in sub[:size.k4_requests]]
                         + [(2, self.p, s) for s in sub[size.k4_requests:]])
        self.reference = {4: float(pg_optimum(size.n, size.q, 4)), 2: k2_law(self.p.probs)}

    def setup(self):
        self.matroid = matroids.build_matroid(self.spec)

    def round(self, checks: Checks, timer: Timer) -> dict:
        trials = self.size.trials
        successes = {4: 0, 2: 0}
        per_request = []
        for k, dist, seed in self.requests:
            est = timer.call(f"k{k}", trials, montecarlo.estimate_F, self.matroid, dist, k,
                             trials, seed)
            checks.equal(f"mc.k{k}.n_trials", est.n_trials, trials)
            successes[k] += est.successes
            per_request.append(est.successes)
        for k, total in successes.items():
            n = trials * sum(1 for kk, _, _ in self.requests if kk == k)
            want = self.reference[k]
            checks.close(f"mc.k{k}.p_hat", total / n, want, MC_SIGMAS * sqrt(want * (1 - want) / n))
        return {"successes": per_request}

    def headline(self, timer: Timer) -> dict:
        trials, seconds = timer.total()
        k4 = median(timer.times("k4"))
        return {"throughput_per_s": trials / seconds, "p50_ms": 1000.0 * k4,
                "named": {"mc_trials_per_s": trials / seconds}}

    def sizes(self) -> dict:
        chunk = montecarlo.DEFAULT_CHUNK
        trials = self.size.trials
        totals = {}
        for k, dist, seed in self.requests:
            cand, distinct = mc_counts(dist.probs, k, trials, seed, chunk)
            t = totals.setdefault(k, [0, 0, 0])
            t[0] += trials
            t[1] += cand
            t[2] += distinct
        out = {"instance": self.matroid.name, "m": self.m, "chunk": chunk}
        for k, (n, cand, distinct) in sorted(totals.items()):
            out[f"k{k}"] = {
                "distinct_ratio": {"value": cand / n, "distinct_candidates": cand, "trials": n},
                "dedupe_ratio": {"value": distinct / cand, "oracle_calls": distinct,
                                 "distinct_candidates": cand}}
        return out


def pg(n: int, q: int) -> str:
    return json.dumps({"type": "projective", "n": n, "q": q})


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CliLadder:
    """``cli.main(argv)`` in-process, one small request per subcommand."""

    MC_TRIALS = 2000
    # 20,000 samples flagged parallel_classes(2) as non-unique on 1,000 of
    # 1,000 seeds tried; the largest min_R was 2.1e-7 against the 1e-6 threshold.
    SCAN_SAMPLES = 20_000

    def __init__(self, seed: int):
        mc_trials, scan_samples = self.MC_TRIALS, self.SCAN_SAMPLES
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        s_mc, s_scan, s_k2, s_hess = seeds(seed, 4)
        fano_p = rng.dirichlet(np.ones(7))
        u25_p = rng.dirichlet(np.ones(5))
        u25 = json.dumps({"type": "uniform", "r": 2, "n": 5})
        pc2 = json.dumps({"type": "parallel_classes", "m_per_class": 2})
        f_fano = float(pg_optimum(3, 2, 3))
        f_23 = pg_optimum(3, 3, 3)
        f_33 = pg_optimum(4, 3, 4)
        mc_sigma = MC_SIGMAS * sqrt(float(f_23) * (1 - float(f_23)) / mc_trials)
        hess_coef = pg_hessian_coefficient(4, 2, 3)

        def r(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        # (argv, [(key, check kind, expected, tolerance)])
        self.requests = [
            (["info", "--spec", pg(4, 2), "--k", "3"],
             [("m", "eq", 15, None), ("rank", "eq", 4, None),
              ("n_independent_ksets", "eq", pg_kset_count(4, 2, 3), None)]),
            (["eval", "--spec", pg(3, 2), "--k", "2", "--dist", json.dumps(fano_p.tolist())],
             [("F", "close", k2_law(np.asarray(fano_p.tolist())), 1e-12)]),
            (["exact-uniform", "--spec", pg(4, 3), "--k", "4"],
             [("F_rational", "eq", r(f_33), None), ("F", "close", float(f_33), 0.0)]),
            (["optimize", "--spec", u25, "--k", "2", "--dist", json.dumps(u25_p.tolist())],
             [("F", "close", float(uniform_optimum(5, 2)), ASCENT_F_TOL),
              ("converged", "eq", True, None), ("p", "near_uniform", 0.2, ASCENT_P_TOL)]),
            (["mc", "--spec", pg(3, 3), "--k", "3", "--trials", str(mc_trials),
              "--seed", str(s_mc)],
             [("exact_F", "close", float(f_23), 1e-12), ("p_hat", "close", float(f_23), mc_sigma)]),
            (["scan", "--spec", pc2, "--k", "2", "--samples", str(scan_samples),
              "--seed", str(s_scan)],
             [("nonunique_maximizer_detected", "eq", True, None), ("skipped", "eq", 0, None)]),
            (["k2check", "--spec", pg(3, 3), "--k", "2", "--samples", "20", "--seed", str(s_k2)],
             [("pass", "eq", True, None)]),
            (["hesscheck", "--spec", pg(4, 2), "--k", "3", "--samples", "10",
              "--seed", str(s_hess)],
             [("pass", "eq", True, None), ("coefficient_rational", "eq", r(hess_coef), None),
              ("b2_count", "eq", pg_pair_count(4, 2, 3), None)]),
            (["orbitavg", "--spec", u25, "--k", "2", "--dist", json.dumps(u25_p.tolist()),
              "--gens", json.dumps([[1, 2, 3, 4, 0]])],
             [("transitive", "eq", True, None), ("monotone", "eq", True, None),
              ("averaged", "near_uniform", 0.2, 1e-15)]),
            (["pushforward", "--spec", pg(3, 2), "--k", "3"],
             [("pushforward", "near_uniform", 1 / 7, 1e-15), ("F", "close", f_fano, 1e-12)]),
        ]

    def setup(self):
        pass  # the package import is the whole set-up; each request builds its own instance

    def round(self, checks: Checks, timer: Timer) -> dict:
        digests = []
        for argv, expect in self.requests:
            name = argv[0]
            code, out = timer.call(name, 1, run_cli, argv)
            if not checks.equal(f"cli.{name}.exit", code, 0):
                digests.append(None)
                continue
            report = json.loads(out)
            report.pop("diagnostics", None)  # timings are not part of the fingerprint
            digests.append(digest(report))
            for key, kind, want, tol in expect:
                got = report.get(key)
                label = f"cli.{name}.{key}"
                if kind == "eq":
                    checks.equal(label, got, want)
                elif kind == "close":
                    checks.close(label, float(got), want, tol)
                else:
                    dev = float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
                    checks.close(label, dev, 0.0, tol)
        return {"reports": digests}

    def headline(self, timer: Timer) -> dict:
        requests, seconds = timer.total()
        ms = [1000.0 * t for t in timer.times()]
        return {"throughput_per_s": requests / seconds, "p50_ms": median(ms),
                "named": {"cli_p50_ms": median(ms), "cli_tail_ms": tail(ms)}}

    def sizes(self) -> dict:
        return {"requests_per_round": len(self.requests)}


# name -> (full size, tiny size) factories taking the workload seed
WORKLOADS = {
    "pg-analysis": (
        lambda seed: Analysis(AnalysisSize("pg", 5, 2, 4, 6, 1000, 20, 3), seed),
        lambda seed: Analysis(AnalysisSize("pg", 4, 2, 3, 2, 50, 3, 2), seed)),
    "uniform-analysis": (
        lambda seed: Analysis(AnalysisSize("uniform", 4, 30, 4, 6, 1000, 20, 0), seed),
        lambda seed: Analysis(AnalysisSize("uniform", 3, 8, 3, 2, 50, 3, 0), seed)),
    "pg-montecarlo": (
        lambda seed: MonteCarlo(McSize(4, 3, 4, 10, 100_000), seed),
        lambda seed: MonteCarlo(McSize(4, 3, 1, 1, 20_000), seed)),
    "cli-ladder": (CliLadder, CliLadder),  # already small
}


def make(name: str, seed: int, tiny: bool = False):
    full, small = WORKLOADS[name]
    return (small if tiny else full)(seed)
