"""Direct simulation of the sampling model: K i.i.d. draws, test whether
they are distinct and form an independent set.

A draw is the inverse-CDF index of its uniform u: the first element whose
cumulative probability reaches u, ties going to the lower index, and never
an element of probability 0.  It is found through a guide table (Chen and
Asau, 1974): [0, 1) is cut into B equal buckets, B the smallest power of
two >= 8m so that floor(u B) is exact, and bucket b keeps the first index
whose cumulative sum reaches b/B.  A draw starts at its bucket's entry and
steps forward while its cumulative sum stays below u.  Only the draws still
behind are stepped again, and they average at most m/B <= 1/8 steps; the
result is the binary search's, bit for bit.  Randomness follows the
counter-based contract in :mod:`matroid_sampling.streams`: trial t
consumes a fixed block range of a Philox stream keyed by the seed, so
estimates are bit-identical under any chunking or thread partition of the
trials.

Independence of a sampled set is decided by the matroid oracle, which for
the column matroids (linear, projective, parallel classes) performs
Gaussian elimination on their columns.  The trials of a request are split
into windows of ``chunk`` trials, and equal sampled sets are deduplicated
per window before the oracle is consulted.  A window is drawn in blocks
whose uniforms fill ``_DRAW_BLOCK_BYTES``, each a contiguous (k, n) array,
row c holding draw c of its n trials, so that each numpy call runs over n
entries, not k.  A compare-exchange network sorts each trial's column;
its draws are distinct when each row exceeds the one before, and the block
keeps only the sets of those trials, each packed by Horner's rule into one
int64 key whose big-endian base-m digits are its elements, so that sorting
the keys sorts the sets lexicographically.  Memory is thus one draw block
plus 8 bytes per trial of the window, and after the sort 8 more per
distinct set for the bounds of the runs of equal keys.  Where m^k would
overflow the keys (m^k >= 2^63) a block keeps the sets themselves, k
entries of the smallest unsigned type that holds m - 1, and ``np.lexsort``
gives the same order.  After the last block each run of equal sets is one
distinct set, asked once, its answer counting for the whole run.  The
representatives are decoded from the keys, one digit column at a time, and
asked in blocks of at most ``_BUILD_BLOCK`` (set, element) entries, each
a tuple of Python ints.  Before a block's asks, where the matroid's memo
(:meth:`~matroid_sampling.matroids.Matroid.is_independent`) holds size k,
the matroid gathers the block's memo bytes from its digit columns and
decides the sets it does not know yet in batches of ``_BUILD_BLOCK // k**2``
rows (``Matroid._learn``, the memo's one writer; one stacked elimination
per batch on the column matroids).  So every ask of a memoized size reads
one byte, unpacked at k <= 4, and a cold request pays no scalar elimination
per new set.  Past the memo, and for an ask outside these windows such as
:func:`sample_kset`'s, each ask is an oracle call.  Neither windows,
batches nor memo change the asks or the successes, only the time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .genpoly import Distribution
from .matroids import _BUILD_BLOCK, Matroid
from .streams import DOUBLES_PER_BLOCK, blocks_per_trial, trial_blocks, trial_uniforms

DEFAULT_CHUNK = 131_072
_DRAW_BLOCK_BYTES = 256 << 10  # the uniforms of one draw block


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
    """Inverse-CDF draws from ``probs``, one per uniform in [0, 1), in the
    shape of ``uniforms``: ``np.searchsorted(np.cumsum(probs), u, "left")``
    clipped to the elements of positive probability, through a guide table
    (see the module docstring)."""
    cum = np.cumsum(probs)
    # Rounding can put a uniform outside the elements of positive
    # probability: 0.0 before a first element of probability 0, or past a
    # cumulative sum that ends slightly below 1.  Sums of -inf before the
    # first such element and +inf from the last one on stop every draw
    # between the two, where clipping would put it.
    support = np.flatnonzero(probs)
    cum[:support[0]] = -np.inf
    cum[support[-1]:] = np.inf
    buckets = 1 << (8 * cum.size - 1).bit_length()
    guide = np.searchsorted(cum, np.arange(buckets) / buckets, side="left")
    draws = np.ascontiguousarray(guide[(uniforms * buckets).astype(np.intp)])
    behind = cum[draws] < uniforms
    lag, u = np.flatnonzero(behind), uniforms[behind]
    flat = draws.reshape(-1)  # a view, in the C order of lag and u
    while lag.size:
        flat[lag] += 1
        ahead = cum[flat[lag]] < u
        lag, u = lag[ahead], u[ahead]
    return draws


def _sort_across(draws: np.ndarray) -> list[np.ndarray]:
    """The k rows of a (k, n) array with each column sorted, overwriting
    ``draws``: row c of the result holds the c-th smallest entry of every
    column.  The compare-exchange network is the optimal one of five
    comparators at k = 4, else odd-even transposition (k rounds of adjacent
    pairs; optimal at k = 2 and 3).  Each comparator writes its minimum
    into one spare (n,) buffer and its maximum in place."""
    k = len(draws)
    network = ([(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)] if k == 4 else
               [(i, i + 1) for r in range(k) for i in range(r % 2, k - 1, 2)])
    rows, spare = list(draws), np.empty_like(draws[0])
    for i, j in network:
        np.minimum(rows[i], rows[j], out=spare)
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i], spare = spare, rows[i]
    return rows


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
    draws = np.sort(_draw_indices(p.probs, rng.random(k)))
    distinct = bool(np.all(draws[1:] > draws[:-1]))
    return distinct, bool(distinct and matroid.is_independent(draws.tolist()))


def estimate_F(matroid: Matroid, p: Distribution, k: int, n_trials: int,
               seed: int = 0, chunk: int = DEFAULT_CHUNK) -> McEstimate:
    """Monte Carlo estimate of the probability that k i.i.d. draws from p
    are distinct and independent.

    Reproducible: ``successes`` depends only on (seed, n_trials,
    instance).  Trial t draws the same k uniforms as ``sample_kset`` would
    with ``trial_substream(seed, t, k)``.  ``chunk`` is the dedupe window:
    each distinct set among a window's trials costs one ``is_independent``
    ask, so larger windows ask less often, and the window's keys take 8
    bytes per trial.  Where the matroid memoizes size k, an ask reads one
    byte: the window's sets new to the memo are decided in batches before
    their asks, the one way the memo is filled.  Otherwise each ask is an
    oracle call.
    When k exceeds the rank no k-set is independent: every seed gives 0
    successes, returned without drawing.
    """
    _check_draws(matroid, p, k)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if k > matroid.rank and chunk >= 1:  # trial_blocks refuses a chunk < 1
        return McEstimate(n_trials, 0, 0.0, 0.0, seed)
    window = functools.partial(_chunk_successes, matroid, p.probs, k, seed)
    successes = sum(trial_blocks(window, n_trials, chunk))
    p_hat = successes / n_trials
    std_err = sqrt(p_hat * (1.0 - p_hat) / n_trials)
    return McEstimate(n_trials=n_trials, successes=successes, p_hat=p_hat,
                      std_err=std_err, seed=seed)


def _chunk_successes(matroid: Matroid, probs: np.ndarray, k: int, seed: int, start: int,
                     count: int) -> int:
    """Successes among trials start .. start + count - 1, one dedupe window.

    The trials are drawn in blocks whose uniforms fill
    ``_DRAW_BLOCK_BYTES``, each a (k, n) array sorted by
    :func:`_sort_across`, whose first row becomes the keys in place.  A
    block keeps only the keys of the trials whose draws are distinct, in a
    buffer of 8 bytes per trial of the window (k entries of the smallest
    unsigned type that holds m - 1 where m^k >= 2^63).  After the last
    block the window is sorted once and each distinct set asked once, in
    lexicographic order, each block after ``matroid._learn``, the memo's
    one writer, has stored the block's sets that the memo did not know."""
    m = matroid.m
    packed = m**k < 2**63
    kept = (np.empty(count, np.int64) if packed
            else np.empty((count, k), np.min_scalar_type(m - 1)))
    n_rows = 0
    per_block = max(1, _DRAW_BLOCK_BYTES // (8 * DOUBLES_PER_BLOCK * blocks_per_trial(k)))
    for lo in range(start, start + count, per_block):
        n = min(per_block, start + count - lo)
        uniforms = np.ascontiguousarray(trial_uniforms(seed, lo, n, k).T)
        draws = _sort_across(_draw_indices(probs, uniforms))
        distinct = np.ones(n, dtype=bool)
        for c in range(1, k):
            distinct &= draws[c] > draws[c - 1]
        if packed:  # the keys by Horner's rule, in place of the first row
            for row in draws[1:]:
                draws[0] *= m
                draws[0] += row
            rows = draws[0][distinct]
        else:
            rows = np.stack(draws, axis=1)[distinct]
        kept[n_rows:n_rows + rows.shape[0]] = rows
        n_rows += rows.shape[0]
    del uniforms, draws, distinct, rows
    if not n_rows:
        return 0
    # the first row of each run of equal sets, then n_rows
    bounds = np.ones(n_rows + 1, dtype=bool)
    if packed:
        keys = kept[:n_rows]
        keys.sort()
        np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    else:
        rows = kept[:n_rows]
        rows = rows[np.lexsort(rows.T[::-1])]
        del kept
        np.any(rows[1:] != rows[:-1], axis=1, out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    successes = 0
    step = max(1, _BUILD_BLOCK // k)
    weights = [m ** (k - 1 - c) for c in range(k)]
    for b in range(0, bounds.size - 1, step):
        edges = bounds[b:b + step + 1]
        if packed:  # the digit columns of the keys, one divmod per digit
            columns, rest = [], keys[edges[:-1]]
            for w in weights[:-1]:
                digit, rest = np.divmod(rest, w)
                columns.append(digit)
            columns.append(rest)
        else:
            columns = rows[edges[:-1]].T
        matroid._learn(columns)  # the block's sets new to the memo, decided in batches
        reps = zip(*[column.tolist() for column in columns])  # tuples of Python ints
        flags = np.fromiter(map(matroid.is_independent, reps), bool, edges.size - 1)
        successes += int(np.diff(edges)[flags].sum())
    return successes
