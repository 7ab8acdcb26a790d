from itertools import combinations
from time import perf_counter

import numpy as np
import pytest

from matroid_sampling import (Distribution, IndepSetIndex, ParallelClassesSpec,
                              ProjectiveSpec, UniformSpec, build_matroid,
                              concavity_probe, enumerate_independent_ksets,
                              eval_F, eval_f, eval_h, gradient_f,
                              hessian_f)
from conftest import CountingMatroid, singer_cycle
from matroid_sampling.genpoly import _midpoint_check
from matroid_sampling.symmetry import apply_to_distribution


def brute_force_ksets(matroid, k):
    return sorted(s for s in combinations(range(matroid.m), k)
                  if matroid.is_independent(s))


def test_enumeration_matches_brute_force(fano, pg12, parallel2):
    for matroid, k in [(fano, 3), (fano, 2), (pg12, 2), (parallel2, 2)]:
        idx = enumerate_independent_ksets(matroid, k)
        assert [tuple(s) for s in idx.sets.tolist()] == brute_force_ksets(matroid, k)


def test_enumeration_counts(fano_idx, pg12_idx, parallel2_idx):
    assert pg12_idx.n_sets == 3
    assert fano_idx.n_sets == 28  # 35 triples minus the 7 lines
    assert parallel2_idx.n_sets == 4


def test_enumeration_k_out_of_range(fano):
    with pytest.raises(ValueError, match="out of range"):
        enumerate_independent_ksets(fano, 0)
    with pytest.raises(ValueError, match="out of range"):
        enumerate_independent_ksets(fano, 4)


def test_enumeration_cap():
    big = build_matroid(UniformSpec(3, 30))
    with pytest.raises(ValueError, match="cap"):
        enumerate_independent_ksets(big, 3, cap=1000)
    # no closed-form count: the search itself stops at the cap
    pairs = CountingMatroid(build_matroid(ParallelClassesSpec(40)))
    with pytest.raises(ValueError, match="cap of 1000 sets"):
        enumerate_independent_ksets(pairs, 2, cap=1000)
    assert pairs.queries


@pytest.mark.parametrize("spec,k,count", [
    (ProjectiveSpec(4, 2), 3, 420),      # PG(3, 2): 15 * 14 * 12 / 3!
    (ProjectiveSpec(3, 3), 3, 234),      # PG(2, 3): 13 * 12 * 9 / 3!
    (UniformSpec(4, 30), 4, 27_405),     # C(30, 4)
])
def test_enumeration_cap_checked_before_search(spec, k, count):
    matroid = CountingMatroid(build_matroid(spec))
    with pytest.raises(ValueError, match=f"cap of {count - 1} sets"):
        enumerate_independent_ksets(matroid, k, cap=count - 1)
    assert matroid.queries == []
    assert enumerate_independent_ksets(matroid, k, cap=count).n_sets == count


def test_enumeration_beyond_cap_fails_fast():
    pg35 = build_matroid(ProjectiveSpec(4, 5))  # PG(3, 5): 18,890,625 independent 4-sets
    start = perf_counter()
    with pytest.raises(ValueError, match="cap"):
        enumerate_independent_ksets(pg35, 4)
    assert perf_counter() - start < 1.0


def test_index_validation(fano_idx):
    with pytest.raises(ValueError):
        IndepSetIndex(2, 4, [[1, 0]])  # not increasing
    with pytest.raises(ValueError):
        IndepSetIndex(2, 4, [[0, 4]])  # out of range
    with pytest.raises(ValueError):
        IndepSetIndex(2, 4, [[0, 1], [0, 1]])  # duplicate


def test_eval_f_values(fano_idx, pg12_idx):
    assert eval_f(fano_idx, np.ones(7)) == 28.0
    assert eval_f(fano_idx, np.zeros(7)) == 0.0
    assert abs(eval_f(fano_idx, np.full(7, 1 / 7)) - 28 / 343) < 1e-16
    assert abs(eval_f(pg12_idx, np.full(3, 1 / 3)) - 1 / 3) < 1e-16


def test_eval_h_values(fano_idx, pg12_idx):
    scale = (27 / 28) ** (1 / 3)
    x = np.full(7, 1 / 7) * scale  # f(x) = 27/343
    assert abs(eval_h(fano_idx, x) - 3 / 7) < 1e-15
    assert eval_h(fano_idx, np.zeros(7)) == 0.0
    assert abs(eval_h(pg12_idx, np.full(3, 1 / 3)) - 1 / np.sqrt(3)) < 1e-15


def test_eval_F_values(fano_idx, pg12_idx, parallel2_idx):
    assert abs(eval_F(pg12_idx, Distribution.uniform(3)) - 2 / 3) < 1e-15
    assert abs(eval_F(fano_idx, Distribution.uniform(7)) - 24 / 49) < 1e-15
    assert abs(eval_F(parallel2_idx, Distribution.uniform(4)) - 0.5) < 1e-15


def test_dimension_mismatch(fano_idx):
    with pytest.raises(ValueError, match="shape"):
        eval_f(fano_idx, np.ones(6))
    with pytest.raises(ValueError):
        eval_f(fano_idx, -np.ones(7))


def test_gradient_examples(fano_idx, pg12_idx):
    grad = gradient_f(pg12_idx, np.full(3, 1 / 3))
    assert grad == pytest.approx(np.full(3, 2 / 3), abs=1e-16)
    assert np.array_equal(gradient_f(fano_idx, np.zeros(7)), np.zeros(7))
    assert np.array_equal(gradient_f(fano_idx, np.ones(7)), np.full(7, 12.0))


def test_gradient_matches_finite_differences(fano_idx, parallel2_idx):
    rng = np.random.default_rng(32)
    step = 1e-5
    for idx in (fano_idx, parallel2_idx):
        for _ in range(20):
            x = rng.random(idx.m) + 0.05
            grad = gradient_f(idx, x)
            for e in range(idx.m):
                bump = np.zeros(idx.m)
                bump[e] = step
                fd = (eval_f(idx, x + bump) - eval_f(idx, x - bump)) / (2 * step)
                assert abs(grad[e] - fd) < 1e-6


def test_hessian_examples(fano_idx, pg12_idx):
    rng = np.random.default_rng(33)
    x = rng.random(7)
    hess = hessian_f(fano_idx, x)
    assert np.all(hess.diagonal() == 0.0)
    assert np.array_equal(hess, hess.T)
    at_u = hessian_f(fano_idx, np.full(7, 1 / 7))
    off = at_u[~np.eye(7, dtype=bool)]
    assert off == pytest.approx(np.full(42, 4 / 7), abs=1e-16)
    pair_hess = hessian_f(pg12_idx, rng.random(3))
    assert np.array_equal(pair_hess, np.ones((3, 3)) - np.eye(3))


def test_hessian_k1_is_zero():
    matroid = build_matroid(UniformSpec(1, 4))
    idx = enumerate_independent_ksets(matroid, 1)
    assert np.array_equal(hessian_f(idx, np.full(4, 0.25)), np.zeros((4, 4)))


def add_at_gradient(idx, x):
    """Prefix/suffix products scattered by np.add.at in row-major order."""
    coords = x[idx.sets]
    left = np.ones_like(coords)
    right = np.ones_like(coords)
    for j in range(1, idx.k):
        left[:, j] = left[:, j - 1] * coords[:, j - 1]
    for j in range(idx.k - 2, -1, -1):
        right[:, j] = right[:, j + 1] * coords[:, j + 1]
    grad = np.zeros(idx.m)
    np.add.at(grad, idx.sets, left * right)
    return grad


def add_at_hessian(idx, x):
    """One np.add.at scatter per ordered column pair, pairs in row-major order."""
    coords = x[idx.sets]
    hess = np.zeros((idx.m, idx.m))
    for a, b in combinations(range(idx.k), 2):
        others = [c for c in range(idx.k) if c not in (a, b)]
        vals = coords[:, others].prod(axis=1) if others else np.ones(idx.n_sets)
        np.add.at(hess, (idx.sets[:, a], idx.sets[:, b]), vals)
        np.add.at(hess, (idx.sets[:, b], idx.sets[:, a]), vals)
    return hess


@pytest.mark.parametrize("spec,k", [(ProjectiveSpec(3, 2), 3), (ProjectiveSpec(3, 3), 3),
                                    (ProjectiveSpec(4, 2), 4), (UniformSpec(4, 9), 4),
                                    (UniformSpec(3, 6), 2), (UniformSpec(2, 4), 1)])
def test_gradient_and_hessian_match_add_at(spec, k):
    idx = enumerate_independent_ksets(build_matroid(spec), k)
    rng = np.random.default_rng(34)
    boundary = rng.dirichlet(np.full(idx.m, 0.2))
    boundary[0] = 0.0
    for x in (rng.random(idx.m), boundary, np.full(idx.m, 1 / idx.m)):
        assert np.array_equal(gradient_f(idx, x), add_at_gradient(idx, x))
        assert np.array_equal(hessian_f(idx, x), add_at_hessian(idx, x))


def test_homogeneity(fano_idx):
    rng = np.random.default_rng(34)
    for _ in range(25):
        x = rng.random(7)
        t = 3 * rng.random()
        assert eval_f(fano_idx, t * x) == pytest.approx(t**3 * eval_f(fano_idx, x), rel=1e-12)
        assert eval_h(fano_idx, t * x) == pytest.approx(t * eval_h(fano_idx, x), rel=1e-12)


def test_permutation_equivariance(fano, fano_idx):
    rng = np.random.default_rng(35)
    g = singer_cycle(fano)
    for _ in range(20):
        p = Distribution(rng.dirichlet(np.ones(7)))
        assert eval_f(fano_idx, apply_to_distribution(g, p)) == pytest.approx(
            eval_f(fano_idx, p), rel=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError, match="sums to"):
        Distribution([0.5, 0.4])
    repaired = Distribution([0.5, 0.5 + 1e-9], renormalize=True)
    assert repaired.probs.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        Distribution([0.5, 0.501], renormalize=True)  # off by more than 1e-6
    with pytest.raises(ValueError, match="nonnegative"):
        Distribution([1.5, -0.5])
    with pytest.raises(ValueError, match="sums to"):
        Distribution([0.5, 0.5 + 1e-9])  # repair not requested


def test_concavity_probe_fano(fano_idx):
    report = concavity_probe(fano_idx, trials=1000, seed=42)
    assert report.max_concavity_violation <= 1e-9
    assert report.max_superlevel_violation <= 1e-9


def test_concavity_probe_linear_case():
    # K = 1 makes the root linear: no violation beyond float re-association
    matroid = build_matroid(UniformSpec(1, 5))
    idx = enumerate_independent_ksets(matroid, 1)
    report = concavity_probe(idx, trials=500, seed=1)
    assert report.max_concavity_violation <= 1e-13
    assert report.max_superlevel_violation <= 1e-13


def test_midpoint_check_equal_points_exact(fano_idx):
    rng = np.random.default_rng(36)
    x = rng.random(7)
    hv, sv = _midpoint_check(fano_idx, x, x)
    assert hv == 0.0
    assert sv == 0.0
