"""The centered gap evaluator F(u) - F(p) and the scan built on it.

Golden values pin the scan's output bit for bit; property tests compare
the evaluator against exact rational arithmetic on random small linear
matroids, check that neither its row blocking nor the scan's chunk size
changes a bit of the output, and that its memory does not grow with the
batch.
"""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroid_sampling import (LinearSpec, ProjectiveSpec, UniformSpec, build_matroid,
                              enumerate_independent_ksets, gaps_from_uniform, genpoly,
                              stability_scan)
from matroid_sampling.projective import _scan_samples
from matroid_sampling.streams import trial_uniforms

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("spec,mode,min_r,digest", [
    (ProjectiveSpec(4, 2), "dirichlet", "0x1.84ae0973d9304p+0",
     "cac91d4088c2bb552bae4117a9465856d98503efacb05dc950a7f84bb3fe8278"),
    (ProjectiveSpec(4, 2), "sparse", "0x1.999999999999ap-1",
     "a18ff79d412c3b64c1ca688ff90e66cdde2613d7a11cbfa9de7cdccb41a5404b"),
    (UniformSpec(3, 8), "dirichlet", "0x1.39c44e9cdc4fdp+0",
     "fb5ffeb6994a5970b101d633a75b647bfa77c02b2825b6e0c4a5346096594011"),
])
def test_scan_golden(spec, mode, min_r, digest):
    idx = enumerate_independent_ksets(build_matroid(spec), 3)
    report = stability_scan(idx, 2000, 7, mode=mode)
    assert report.min_ratio == float.fromhex(min_r)
    assert hashlib.sha256(report.argmin.astype(np.float64).tobytes()).hexdigest() == digest
    assert report.skipped == 0


@pytest.mark.parametrize("m", [1, 2, 7, 31])
def test_sparse_support_is_the_lowest_ranked_elements(m):
    count = 300
    pts = _scan_samples(3, 11, count, m, "sparse")
    u = trial_uniforms(3, 11, count, 2 * m + 1)
    for i in range(count):
        size = 1 + min(int(u[i, 0] * m), m - 1)
        support = np.argsort(u[i, 1:1 + m])[:size]
        weights = np.zeros(m)
        weights[support] = -np.log1p(-u[i, 1 + m:])[support]
        # atol = 0: every entry outside the support must be exactly zero
        np.testing.assert_allclose(pts[i], weights / weights.sum(), rtol=1e-15, atol=0)


def test_gaps_shape_validated(fano_idx):
    with pytest.raises(ValueError, match="shape"):
        gaps_from_uniform(fano_idx, np.full(7, 1 / 7))
    with pytest.raises(ValueError, match="shape"):
        gaps_from_uniform(fano_idx, np.full((2, 6), 1 / 6))


@st.composite
def linear_matroids(draw):
    """A linear matroid over F_2 or F_3 on 2..7 nonzero columns of length 1..3."""
    q = draw(st.sampled_from((2, 3)))
    dim = draw(st.integers(1, 3))
    column = st.tuples(*[st.integers(0, q - 1)] * dim).filter(any)
    columns = draw(st.lists(column, min_size=2, max_size=7))
    return build_matroid(LinearSpec(q, tuple(columns)))


@st.composite
def rational_points(draw, m):
    """A rational distribution on m points: dense, sparse, a point mass or uniform."""
    kind = draw(st.sampled_from(("dense", "sparse", "point", "uniform")))
    if kind == "point":
        weights = [0] * m
        weights[draw(st.integers(0, m - 1))] = 1
    elif kind == "uniform":
        weights = [1] * m
    else:
        low = 1 if kind == "dense" else 0
        weights = draw(st.lists(st.integers(low, 9), min_size=m, max_size=m).filter(any))
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@PROPERTY
@given(st.data())
def test_gaps_match_exact_rationals(data):
    matroid = data.draw(linear_matroids())
    m = matroid.m
    k = data.draw(st.integers(1, matroid.rank))
    points = data.draw(st.lists(rational_points(m), min_size=1, max_size=4))
    sets = [s for s in combinations(range(m), k) if matroid.is_independent(s)]
    f_u = factorial(k) * Fraction(len(sets), m**k)
    gaps, norm2 = gaps_from_uniform(enumerate_independent_ksets(matroid, k),
                                    np.array([[float(x) for x in p] for p in points]))
    for p, gap, n2 in zip(points, gaps, norm2):
        exact_gap = f_u - factorial(k) * sum(prod(p[e] for e in s) for s in sets)
        exact_norm2 = sum((x - Fraction(1, m)) ** 2 for x in p)
        assert abs(gap - float(exact_gap)) <= 1e-12
        assert abs(n2 - float(exact_norm2)) <= 1e-14


@PROPERTY
@given(st.data())
def test_scan_independent_of_chunk(data):
    matroid = data.draw(linear_matroids())
    idx = enumerate_independent_ksets(matroid, data.draw(st.integers(1, matroid.rank)))
    n_samples = data.draw(st.integers(1, 60))
    seed = data.draw(st.integers(0, 2**32))
    mode = data.draw(st.sampled_from(("dirichlet", "sparse")))
    chunk = data.draw(st.integers(1, 70))
    whole = stability_scan(idx, n_samples, seed, mode=mode, chunk=n_samples)
    parts = stability_scan(idx, n_samples, seed, mode=mode, chunk=chunk)
    assert parts.min_ratio == whole.min_ratio
    assert np.array_equal(parts.argmin, whole.argmin)
    assert np.array_equal(parts.histogram_counts, whole.histogram_counts)
    assert np.array_equal(parts.histogram_edges, whole.histogram_edges)
    assert parts.skipped == whole.skipped


def unblocked_gaps(idx, pts):
    """The evaluator's arithmetic on whole (batch, n_sets) arrays, unblocked."""
    m = idx.m
    w = pts * m - 1.0
    w -= w.mean(axis=1, keepdims=True)
    degrees = np.bincount(idx.sets.ravel(), minlength=m).astype(float)
    linear = np.zeros((pts.shape[0], idx.n_sets))
    higher = np.zeros_like(linear)
    for j in range(idx.k):
        wj = w[:, idx.sets[:, j]]
        higher += (linear + higher) * wj
        linear += wj
    total = higher.sum(axis=1) + w @ (degrees - degrees.mean())
    return -factorial(idx.k) * float(m) ** (-idx.k) * total


@PROPERTY
@given(st.data())
def test_gaps_independent_of_row_blocks(data):
    matroid = data.draw(linear_matroids())
    idx = enumerate_independent_ksets(matroid, data.draw(st.integers(1, matroid.rank)))
    batch = data.draw(st.integers(3, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    pts = rng.dirichlet(np.full(idx.m, data.draw(st.sampled_from((0.1, 1.0)))), size=batch)
    pts[0] = 1.0 / idx.m
    want = unblocked_gaps(idx, pts)
    ragged = data.draw(st.integers(2, batch - 1).filter(lambda r: batch % r))
    row = 8 * idx.n_sets
    for budget in (1, ragged * row, batch * row):  # one row, ragged last block, one block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(genpoly, "GAP_BLOCK_BYTES", budget)
            gaps, _ = gaps_from_uniform(idx, pts)
        assert np.array_equal(gaps, want)


def traced_peak(idx, pts) -> int:
    tracemalloc.start()
    try:
        gaps_from_uniform(idx, pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gaps_memory_does_not_grow_with_batch():
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(4, 2)), 4)
    assert idx.n_sets == 840
    rng = np.random.default_rng(3)
    small, large = (rng.dirichlet(np.ones(idx.m), size=rows) for rows in (50, 2000))
    # a (2000, n_sets) float64 array alone would take 13 MB
    assert traced_peak(idx, small) < 2 * 2**20
    assert traced_peak(idx, large) < 2 * 2**20
    assert traced_peak(idx, large) - traced_peak(idx, small) <= 4 * (large.nbytes - small.nbytes)


def test_gaps_memory_on_pg_4_2():
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(5, 2)), 4)
    pts = np.random.default_rng(4).dirichlet(np.ones(idx.m), size=1000)
    # 26,040 sets, so one row per block; a (1000, n_sets) array alone is 208 MB
    assert traced_peak(idx, pts) < 4 * 2**20
