"""Direct simulation of the sampling model: K i.i.d. draws, test whether
they are distinct and form an independent set.

Draws use inverse-CDF sampling on the cumulative probability vector with
binary search, ties broken toward the lower index, and never land on an
element of probability 0.  Randomness follows the counter-based contract
in :mod:`matroid_sampling.streams`: trial t consumes a fixed block range
of a Philox stream keyed by the seed, so estimates are bit-identical under
any chunking or thread partition of the trials.

Independence of a sampled set is decided by the matroid oracle, which for
linear and projective matroids performs Gaussian elimination on the
canonical representatives.  Equal sampled sets are deduplicated per chunk
before the oracle is consulted.  Each sorted set of k distinct draws is
packed into one int64 key, its elements the big-endian base-m digits, so
that sorting the keys sorts the sets lexicographically; each run of equal
keys is one distinct set, asked once, its answer counting for the whole
run.  The representatives are decoded and asked in blocks of at most
``_BUILD_BLOCK`` (set, element) entries.  Where m^k would overflow the
keys (m^k >= 2^63) the rows themselves are ordered by ``np.lexsort``,
which gives the same order.  The oracle's own memo (see
:mod:`matroid_sampling.matroids`) then answers sets already seen in
earlier chunks or calls.  Both change nothing but the running time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .genpoly import _BUILD_BLOCK, Distribution
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


def _draw_indices(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from ``probs``, one per uniform in [0, 1)."""
    idx = np.searchsorted(np.cumsum(probs), uniforms, side="left")
    # Rounding can put a uniform outside the elements of positive
    # probability: 0.0 before a first element of probability 0, or past a
    # cumulative sum that ends slightly below 1.
    support = np.flatnonzero(probs)
    return np.clip(idx, support[0], support[-1])


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
    draws = _draw_indices(p.probs, rng.random(k))
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
    successes = sum(
        _chunk_successes(matroid, p.probs, k, seed, start, min(chunk, n_trials - start))
        for start in range(0, n_trials, chunk))
    p_hat = successes / n_trials
    std_err = sqrt(p_hat * (1.0 - p_hat) / n_trials)
    return McEstimate(n_trials=n_trials, successes=successes, p_hat=p_hat,
                      std_err=std_err, seed=seed)


def _chunk_successes(matroid: Matroid, probs: np.ndarray, k: int, seed: int, start: int,
                     count: int) -> int:
    """Successes among trials start .. start + count - 1.  A chunk's arrays
    are freed on return, before the next chunk allocates its own."""
    uniforms = trial_uniforms(seed, start, count, k)
    draws = _draw_indices(probs, uniforms.ravel()).reshape(count, k)
    draws.sort(axis=1)
    rows = draws[np.all(np.diff(draws, axis=1) > 0, axis=1)]
    if not rows.size:
        return 0
    m = matroid.m
    packed = m**k < 2**63
    if packed:
        weights = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
        keys = np.sort(rows @ weights)
        first = keys[1:] != keys[:-1]
    else:
        rows = rows[np.lexsort(rows.T[::-1])]
        first = np.any(rows[1:] != rows[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], first)))
    group_sizes = np.diff(starts, append=rows.shape[0])
    successes = 0
    step = max(1, _BUILD_BLOCK // k)
    for b in range(0, starts.size, step):
        block = starts[b:b + step]
        reps = keys[block, None] // weights % m if packed else rows[block]
        flags = np.fromiter(map(matroid.is_independent, reps.tolist()), bool, block.size)
        successes += int(group_sizes[b:b + step][flags].sum())
    return successes
