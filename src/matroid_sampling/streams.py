"""Reproducible counter-based random streams.

Contract, fixed for this repository: randomness comes from numpy's Philox
4x64 counter-based generator keyed by the user seed.  A logical trial that
needs d float64 draws owns a fixed budget of ceil(d/4) 256-bit counter
blocks; trial t starts at block t * ceil(d/4) and each float64 consumes one
64-bit output word, in counter order.  Consequently any partition of trials
into chunks, processes, or threads reproduces bit-identical draws, and
results depend only on (seed, trial index).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

DOUBLES_PER_BLOCK = 4


def blocks_per_trial(doubles: int) -> int:
    if doubles < 1:
        raise ValueError("a trial must draw at least one double")
    return -(-doubles // DOUBLES_PER_BLOCK)


def _check_seed(seed: int):
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def trial_substream(seed: int, trial: int, doubles_per_trial: int) -> Generator:
    """Generator positioned at the start of one trial's counter blocks."""
    _check_seed(seed)
    blocks = blocks_per_trial(doubles_per_trial)
    return Generator(Philox(key=int(seed), counter=trial * blocks))


def trial_uniforms(seed: int, first_trial: int, n_trials: int,
                   doubles_per_trial: int) -> np.ndarray:
    """Uniform [0,1) draws for trials first_trial .. first_trial+n_trials-1.

    Returns an (n_trials, doubles_per_trial) array; row i is bit-identical
    to ``trial_substream(seed, first_trial + i, d).random(d)``.
    """
    _check_seed(seed)
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    blocks = blocks_per_trial(doubles_per_trial)
    width = blocks * DOUBLES_PER_BLOCK
    gen = Generator(Philox(key=int(seed), counter=first_trial * blocks))
    return gen.random(n_trials * width).reshape(n_trials, width)[:, :doubles_per_trial]


def trial_blocks(run, n_trials: int, chunk: int):
    """run(first, count) for consecutive blocks of at most ``chunk`` of
    ``n_trials`` trials, so that working memory does not grow with
    n_trials; ValueError on the first block unless chunk >= 1."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    for first in range(0, n_trials, chunk):
        yield run(first, min(chunk, n_trials - first))
