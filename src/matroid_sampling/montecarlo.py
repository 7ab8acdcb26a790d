"""Direct simulation of the sampling model: K i.i.d. draws, test whether
they are distinct and form an independent set.

Draws use inverse-CDF sampling on the cumulative probability vector with
binary search, ties broken toward the lower index.  Randomness follows the
counter-based contract in :mod:`matroid_sampling.streams`: trial t consumes
a fixed block range of a Philox stream keyed by the seed, so estimates are
bit-identical under any chunking or thread partition of the trials.

Independence of a sampled set is decided by the matroid oracle, which for
linear and projective matroids performs Gaussian elimination on the
canonical representatives.  Equal sampled sets are deduplicated per chunk
before the oracle is consulted: the sorted draws are ordered by
``np.lexsort`` and the first row of each run of equal rows is asked once,
its answer counting for the whole run.  The oracle's own memo (see
:mod:`matroid_sampling.matroids`) then answers sets already seen in
earlier chunks or calls.  Both change nothing but the running time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .genpoly import Distribution
from .matroids import Matroid
from .streams import trial_uniforms

DEFAULT_CHUNK = 65_536


@dataclass(frozen=True)
class McEstimate:
    n_trials: int
    successes: int
    p_hat: float
    std_err: float
    seed: int

    def to_json(self) -> dict:
        return {"n_trials": self.n_trials, "successes": self.successes,
                "p_hat": self.p_hat, "std_err": self.std_err, "seed": self.seed}


def _draw_indices(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cumulative, uniforms, side="left")
    # guard against cumulative[-1] rounding slightly below a draw
    return np.minimum(idx, cumulative.size - 1)


def _check_draws(matroid: Matroid, p: Distribution, k: int):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(p) != matroid.m:
        raise ValueError(f"distribution length {len(p)} != ground size {matroid.m}")


def sample_kset(matroid: Matroid, p: Distribution, k: int, rng: np.random.Generator
                ) -> tuple[bool, bool]:
    """One trial: draw k elements i.i.d. from p; report (distinct, independent).

    ``independent`` is False whenever the draws collide.
    """
    _check_draws(matroid, p, k)
    cumulative = np.cumsum(p.probs)
    draws = _draw_indices(cumulative, rng.random(k))
    distinct = np.unique(draws).size == k
    independent = bool(distinct and matroid.is_independent(draws.tolist()))
    return bool(distinct), independent


def estimate_F(matroid: Matroid, p: Distribution, k: int, n_trials: int,
               seed: int = 0, chunk: int = DEFAULT_CHUNK) -> McEstimate:
    """Monte Carlo estimate of the probability that k i.i.d. draws from p
    are distinct and independent.

    Reproducible: depends only on (seed, n_trials, instance); the chunk
    size affects memory use only.  Trial t draws the same k uniforms as
    ``sample_kset`` would with ``trial_substream(seed, t, k)``.
    """
    _check_draws(matroid, p, k)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    cumulative = np.cumsum(p.probs)
    successes = 0
    for start in range(0, n_trials, chunk):
        count = min(chunk, n_trials - start)
        uniforms = trial_uniforms(seed, start, count, k)
        draws = _draw_indices(cumulative, uniforms.ravel()).reshape(count, k)
        draws.sort(axis=1)
        rows = draws[np.all(np.diff(draws, axis=1) > 0, axis=1)]
        if rows.size:
            rows = rows[np.lexsort(rows.T[::-1])]
            first = np.ones(rows.shape[0], dtype=bool)
            first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
            starts = np.flatnonzero(first)
            group_sizes = np.diff(starts, append=rows.shape[0])
            flags = np.fromiter((matroid.is_independent(row) for row in rows[starts].tolist()),
                                dtype=bool, count=starts.size)
            successes += int(group_sizes[flags].sum())
    p_hat = successes / n_trials
    std_err = sqrt(p_hat * (1.0 - p_hat) / n_trials)
    return McEstimate(n_trials=n_trials, successes=successes, p_hat=p_hat,
                      std_err=std_err, seed=seed)
