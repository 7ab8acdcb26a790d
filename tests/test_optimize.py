import warnings

import numpy as np
import pytest

from matroid_sampling import (AscentConfig, Distribution, ExplicitSpec,
                              ParallelClassesSpec, ProjectiveSpec, UniformSpec,
                              build_matroid, enumerate_independent_ksets, eval_F,
                              maximize_F, optimality_gap)


def random_interior(m, rng):
    p = rng.dirichlet(np.ones(m))
    p = np.maximum(p, 1e-9)
    return Distribution(p / p.sum(), renormalize=True)


def test_config_validation():
    with pytest.raises(ValueError):
        AscentConfig(step_size=0.0)
    with pytest.raises(ValueError):
        AscentConfig(max_iters=0)
    with pytest.raises(ValueError):
        AscentConfig(start=Distribution([0.0, 1.0]))  # boundary start


def test_fano_converges_to_uniform(fano_idx):
    rng = np.random.default_rng(3)
    result = maximize_F(fano_idx, AscentConfig(start=random_interior(7, rng)))
    assert result.converged
    assert result.stop_reason == "gradient"
    assert np.linalg.norm(result.p.probs - 1 / 7) <= 1e-6
    assert result.value == pytest.approx(24 / 49, abs=1e-10)


def test_parallel_classes_reaches_half_with_nonuniform_p(parallel2_idx):
    start = Distribution([0.5, 0.2, 0.2, 0.1])
    result = maximize_F(parallel2_idx, AscentConfig(start=start))
    assert result.converged
    mass_a = result.p.probs[:2].sum()
    assert abs(mass_a - 0.5) <= 1e-6
    assert result.value == pytest.approx(0.5, abs=1e-10)
    # the within-class shape of the start survives: maximizer is not uniform
    assert np.linalg.norm(result.p.probs - 0.25) > 1e-3


def test_uniform_matroid_converges_to_uniform():
    rng = np.random.default_rng(5)
    for (r, n, k) in [(2, 5, 2), (3, 6, 3)]:
        idx = enumerate_independent_ksets(build_matroid(UniformSpec(r, n)), k)
        result = maximize_F(idx, AscentConfig(start=random_interior(n, rng)))
        assert np.linalg.norm(result.p.probs - 1 / n) <= 1e-6


def test_trajectory_monotone(fano_idx):
    rng = np.random.default_rng(7)
    result = maximize_F(fano_idx, AscentConfig(start=random_interior(7, rng)))
    assert np.all(np.diff(result.trajectory) >= -1e-12)
    assert result.trajectory[0] <= result.trajectory[-1]
    assert result.value == result.trajectory[-1]


def test_restart_independence_unique_maximizer(fano_idx):
    rng = np.random.default_rng(9)
    finals = []
    for _ in range(10):
        result = maximize_F(fano_idx, AscentConfig(start=random_interior(7, rng)))
        finals.append(result.p.probs)
    for p in finals[1:]:
        assert np.linalg.norm(p - finals[0]) <= 1e-6


def test_restart_independence_nonunique_maximizer(parallel2_idx):
    rng = np.random.default_rng(11)
    values, points = [], []
    for _ in range(10):
        result = maximize_F(parallel2_idx, AscentConfig(start=random_interior(4, rng)))
        values.append(result.value)
        points.append(result.p.probs)
    assert np.max(np.abs(np.array(values) - 0.5)) <= 1e-10
    # distinct starts land on distinct maximizers
    spread = max(np.linalg.norm(p - points[0]) for p in points)
    assert spread > 1e-3


def test_maximizer_set_is_convex(parallel2_idx):
    a = maximize_F(parallel2_idx, AscentConfig(start=Distribution([0.5, 0.2, 0.2, 0.1]))).p
    b = maximize_F(parallel2_idx, AscentConfig(start=Distribution([0.1, 0.3, 0.4, 0.2]))).p
    mid = Distribution((a.probs + b.probs) / 2, renormalize=True)
    assert eval_F(parallel2_idx, mid) >= 0.5 - 1e-10


def test_start_on_zero_set_rejected():
    # the only independent 3-set misses element 3; putting nearly all mass
    # there underflows every monomial at an interior start
    matroid = build_matroid(ExplicitSpec(4, 3, ((0, 1, 2),)))
    idx = enumerate_independent_ksets(matroid, 3)
    tiny = 1e-155
    start = Distribution([tiny, tiny, tiny, 1.0 - 3 * tiny])
    with pytest.raises(ValueError, match="vanishes"):
        maximize_F(idx, AscentConfig(start=start))


def test_max_iters_reached_flags_not_converged(fano_idx):
    start = Distribution(np.array([4.0, 1, 1, 1, 1, 1, 1]) / 10)
    result = maximize_F(fano_idx, AscentConfig(max_iters=2, tol_grad=1e-16, start=start))
    assert not result.converged
    assert result.stop_reason == "max_iters"
    assert result.iterations == 2
    assert result.to_json()["stop_reason"] == "max_iters"


def test_plateau_is_not_converged():
    # f(start) = 1e-310 / 9 is subnormal, so d log f / dx_0 overflows to inf:
    # no trial point is finite and backtracking bottoms out at MIN_STEP
    matroid = build_matroid(ExplicitSpec(4, 3, ((0, 1, 2),)))
    idx = enumerate_independent_ksets(matroid, 3)
    start = Distribution([1e-310, 1 / 3, 1 / 3, 1 / 3], renormalize=True)
    with np.errstate(all="ignore"):
        result = maximize_F(idx, AscentConfig(start=start))
    assert result.stop_reason == "plateau"
    assert not result.converged
    assert result.iterations == 0
    assert result.halvings == 59  # 0.5 / 2**59 < MIN_STEP = 1e-18 <= 0.5 / 2**58
    assert result.to_json()["halvings"] == 59


def test_underflowing_step_is_rejected():
    # the second full step underflows every coordinate to 0; it is halved
    # like a decreasing step instead of reaching eval_f as NaNs
    idx = enumerate_independent_ksets(build_matroid(UniformSpec(3, 6)), 3)
    p = np.array([3e-8, 0.0, 1e-15, 8e-4, 3e-8, 1e-8])
    p[1] = 1.0 - p.sum()
    with np.errstate(all="ignore"):
        result = maximize_F(idx, AscentConfig(start=Distribution(p), max_iters=50))
    assert result.stop_reason == "max_iters"
    assert not result.converged
    assert result.halvings > 0
    assert np.all(np.isfinite(result.p.probs))
    assert np.all(np.diff(result.trajectory) >= -1e-12)


def test_no_step_to_zero_from_a_tiny_start_value():
    # F(start) = 6.58e-13: an absolute tolerance of 1e-12 would accept a
    # trial point with F = 0, after which d log f divides by zero
    idx = enumerate_independent_ksets(build_matroid(ParallelClassesSpec(2)), 2)
    start = Distribution([7.404793176161658e-10, 0.9999999992591917,
                          2.0821361767457948e-15, 3.268450467631486e-13], renormalize=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = maximize_F(idx, AscentConfig(start=start))
    assert result.value >= eval_F(idx, start) > 0.0
    assert np.all(np.diff(result.trajectory) >= -1e-12 * result.trajectory[:-1])


def test_optimality_gap_examples(fano_idx, parallel2_idx):
    assert optimality_gap(fano_idx, Distribution.uniform(7)) == 0.0
    delta = np.zeros(7)
    delta[0] = 1.0
    assert optimality_gap(fano_idx, Distribution(delta)) == pytest.approx(24 / 49, abs=1e-15)
    gap = optimality_gap(parallel2_idx, Distribution([0.3, 0.2, 0.3, 0.2]))
    assert abs(gap) <= 1e-15


def test_optimality_gap_nonnegative_on_transitive_battery(fano_idx, pg12_idx, parallel2_idx):
    rng = np.random.default_rng(13)
    for idx in (fano_idx, pg12_idx, parallel2_idx):
        for _ in range(200):
            p = Distribution(rng.dirichlet(np.ones(idx.m)))
            assert optimality_gap(idx, p) >= -1e-12
