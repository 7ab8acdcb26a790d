"""Layer-boundary tracing of the package, from outside it.

A traced run rebinds, for its duration, the names through which the
package's modules call each other (``optimize.eval_f``,
``montecarlo.trial_uniforms``, ``cli.build_matroid`` ...) to wrappers that
record a span: name, start, end, parent span, the top-level request it
belongs to, and attributes read off the arguments and the result.  The
matroid handed to ``enumerate_independent_ksets`` and ``estimate_F`` is
replaced by a duck-typed proxy that counts and times oracle calls; those
are aggregated into the enclosing span instead of being recorded one by one.
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its child spans
and its aggregated oracle time.  End-to-end runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import json
from statistics import median
from time import perf_counter

from matroid_sampling import (cli, genpoly, matroids, montecarlo, optimize, projective,
                              streams, symmetry)

MODULES = {"cli": cli, "genpoly": genpoly, "matroids": matroids, "montecarlo": montecarlo,
           "optimize": optimize, "projective": projective, "symmetry": symmetry}


class CountingMatroid:
    """Forwards everything to a matroid, timing each ``is_independent`` call."""

    def __init__(self, matroid, tracer: "Tracer"):
        self._matroid = matroid
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._matroid, name)

    def is_independent(self, subset) -> bool:
        t0 = perf_counter()
        result = self._matroid.is_independent(subset)
        self._tracer.oracle(perf_counter() - t0)
        return result


def _enum_attrs(a, idx):
    return {"n_sets": idx.n_sets, "index_bytes": int(idx.sets.nbytes)}


def _ascent_attrs(a, result):
    return {"iterations": result.iterations}


def _scan_attrs(a, report):
    idx = a["idx"]
    batch = min(a["chunk"], a["n_samples"])
    return {"samples": a["n_samples"], "skipped": report.skipped,
            "batch_bytes": batch * idx.n_sets * idx.k * 8}


def _uniforms_attrs(a, out):
    blocks = streams.blocks_per_trial(a["doubles_per_trial"])
    return {"doubles": a["n_trials"] * blocks * streams.DOUBLES_PER_BLOCK}


def _estimate_attrs(a, est):
    return {"probs": a["p"].probs.tolist(), "k": a["k"], "n_trials": a["n_trials"],
            "seed": a["seed"], "chunk": a["chunk"]}


# (attribute, span name, attributes from (bound arguments, result), proxy first argument)
TARGETS = {
    "build_matroid": ("matroids.build", None, False),
    "enumerate_independent_ksets": ("genpoly.enum", _enum_attrs, True),
    "eval_f": ("genpoly.eval_f", None, False),
    "gradient_f": ("genpoly.gradient_f", None, False),
    "hessian_f": ("genpoly.hessian_f", None, False),
    "maximize_F": ("optimize.maximize_F", _ascent_attrs, False),
    "stability_scan": ("projective.scan", _scan_attrs, False),
    "b2_count": ("projective.b2_count", None, False),
    "trial_uniforms": ("streams.uniforms", _uniforms_attrs, False),
    "estimate_F": ("montecarlo.estimate", _estimate_attrs, True),
    "pgl_point_permutation": ("symmetry.pgl_point_permutation", None, False),
    "check_invariance": ("symmetry.check_invariance", None, False),
    "orbit_average": ("symmetry.orbit_average", None, False),
}

# the subcommands whose median latency is a per-layer metric
CLI_SUBCOMMANDS = ("info", "eval", "exact-uniform", "optimize", "mc", "scan", "k2check",
                   "hesscheck", "orbitavg", "pushforward")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent else None,
                "request": parent["request"] if parent else len(self.spans),
                "phase": self.phase, "oracle_calls": 0, "oracle_s": 0.0, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = perf_counter()
        return span

    def close(self, span: dict):
        span["end"] = perf_counter()
        self._stack.pop()

    def oracle(self, seconds: float):
        span = self._stack[-1]
        span["oracle_calls"] += 1
        span["oracle_s"] += seconds

    def wrap(self, fn, name: str, attrs, proxy: bool):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if proxy:
                args = (CountingMatroid(args[0], tracer),) + args[1:]
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"].update(attrs(bound.arguments, result))
            return result

        return traced

    def wrap_cli(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(argv=None):
            span = tracer.open(f"cli.{argv[0]}")
            try:
                return fn(argv)
            finally:
                tracer.close(span)

        return traced

    def install(self):
        """Rebind every traced name in every package module that has it;
        returns a function that restores the originals."""
        saved = []
        for module in MODULES.values():
            for attr, (name, attrs, proxy) in TARGETS.items():
                if hasattr(module, attr):
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, name, attrs, proxy))
        saved.append((cli, "main", cli.main))
        cli.main = self.wrap_cli(cli.main)

        def restore():
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

        return restore

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def durations(spans: list[dict]) -> dict[int, float]:
    return {s["id"]: s["end"] - s["start"] for s in spans}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration minus child spans and aggregated oracle time, per span id."""
    dur = durations(spans)
    out = {s["id"]: dur[s["id"]] - s["oracle_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= dur[s["id"]]
    return out


def layer_metrics(spans: list[dict], rounds: int, overhead_s: float,
                  candidates: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics for one traced set-up plus one average traced round.

    Set-up spans count once and round spans are divided by ``rounds``; a
    layer the workload does not reach reads 0.  ``candidates`` maps each
    ``montecarlo.estimate`` span id to its trials with distinct draws.
    """
    dur = durations(spans)
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def weight(s):
        return 1.0 if s["phase"] == "setup" else 1.0 / rounds

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, value=lambda s: dur[s["id"]]):
        return sum((weight(s) * value(s) for s in named(name)), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def under(name, parent_name):
        return [s for s in spans if s["name"] == name and s["parent"] is not None
                and by_id[s["parent"]]["name"] == parent_name]

    oracle_calls = sum(weight(s) * s["oracle_calls"] for s in spans)
    oracle_s = sum(weight(s) * s["oracle_s"] for s in spans)
    enum_calls = total("genpoly.enum", lambda s: s["oracle_calls"])
    enum_sets = total("genpoly.enum", lambda s: s["attrs"]["n_sets"])
    iterations = total("optimize.maximize_F", lambda s: s["attrs"]["iterations"])
    ascent_evals = sum(weight(s) for s in under("genpoly.eval_f", "optimize.maximize_F"))
    trials = total("montecarlo.estimate", lambda s: s["attrs"]["n_trials"])
    distinct_trials = total("montecarlo.estimate", lambda s: candidates[s["id"]])
    mc_calls = total("montecarlo.estimate", lambda s: s["oracle_calls"])
    symmetry_s = sum((weight(s) * dur[s["id"]] for s in spans
                      if s["name"].startswith("symmetry.")
                      and (s["parent"] is None
                           or not by_id[s["parent"]]["name"].startswith("symmetry."))), 0.0)

    out = {
        "matroids.build_s": total("matroids.build"),
        "matroids.oracle_calls": oracle_calls,
        "matroids.oracle_s": oracle_s,
        "matroids.oracle_us_per_call": 1e6 * ratio(oracle_s, oracle_calls),
        "genpoly.enum_s": total("genpoly.enum"),
        "genpoly.enum_sets": enum_sets,
        "genpoly.enum_yield": ratio(enum_sets, enum_calls),
        "genpoly.index_bytes": max([s["attrs"]["index_bytes"] for s in named("genpoly.enum")],
                                   default=0),
        "genpoly.eval_f_calls": total("genpoly.eval_f", lambda s: 1),
        "genpoly.eval_f_s": total("genpoly.eval_f"),
        "genpoly.gradient_f_calls": total("genpoly.gradient_f", lambda s: 1),
        "genpoly.gradient_f_s": total("genpoly.gradient_f"),
        "genpoly.hessian_f_s": total("genpoly.hessian_f"),
        "optimize.iterations": iterations,
        "optimize.evals_per_iter": ratio(ascent_evals, iterations),
        "optimize.self_s": total("optimize.maximize_F", lambda s: own[s["id"]]),
        "projective.scan_s": total("projective.scan"),
        "projective.scan_self_s": total("projective.scan", lambda s: own[s["id"]]),
        "projective.scan_batch_bytes": max([s["attrs"]["batch_bytes"]
                                            for s in named("projective.scan")], default=0),
        "projective.scan_skipped": total("projective.scan", lambda s: s["attrs"]["skipped"]),
        "streams.uniforms_s": total("streams.uniforms"),
        "streams.doubles": total("streams.uniforms", lambda s: s["attrs"]["doubles"]),
        "montecarlo.estimate_s": total("montecarlo.estimate"),
        "montecarlo.self_s": total("montecarlo.estimate", lambda s: own[s["id"]]),
        "montecarlo.distinct_ratio": ratio(distinct_trials, trials),
        "montecarlo.dedupe_ratio": ratio(mc_calls, distinct_trials),
        "symmetry.s": symmetry_s,
    }
    for sub in CLI_SUBCOMMANDS:
        times = [1000.0 * dur[s["id"]] for s in named(f"cli.{sub}")]
        out[f"cli.{sub}_p50_ms"] = median(times) if times else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_s") or name == "symmetry.s":
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_yield", "_per_iter")):
        return "1"
    return "count"

