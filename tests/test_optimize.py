import hashlib
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import linear_matroids
from matroid_sampling import (AscentConfig, Distribution, ExplicitSpec, PGParams,
                              ParallelClassesSpec, ProjectiveSpec, UniformSpec,
                              build_matroid, enumerate_independent_ksets, eval_F,
                              maximize_F, optimality_gap, optimize, uniform_optimum)


def random_interior(m, rng):
    p = rng.dirichlet(np.ones(m))
    p = np.maximum(p, 1e-9)
    return Distribution(p / p.sum(), renormalize=True)


def test_config_validation():
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
    assert result.evaluations == 1  # no trial point reached the evaluator


def test_underflowing_step_is_rejected():
    # full steps from this start underflow coordinates to exactly 0, from
    # where no multiplicative step brings them back (an ascent that took them
    # ended on a face at F = 3/8); they are halved like decreasing steps, so
    # the ascent stays inside the simplex and reaches the optimum 5/9
    idx = enumerate_independent_ksets(build_matroid(UniformSpec(3, 6)), 3)
    p = np.array([3e-8, 0.0, 1e-15, 8e-4, 3e-8, 1e-8])
    p[1] = 1.0 - p.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN or division by zero on the way
        result = maximize_F(idx, AscentConfig(start=Distribution(p), max_iters=50))
    assert result.stop_reason == "gradient"
    assert abs(result.value - 5 / 9) <= 1e-12
    assert result.halvings > 0
    assert np.all(np.isfinite(result.p.probs))
    assert np.min(result.p.probs) > 0
    assert np.all(np.diff(result.trajectory) >= -1e-12)


@pytest.mark.parametrize("spec,k,optimum", [
    (ProjectiveSpec(5, 2), 4, uniform_optimum(PGParams(5, 2, 4))),
    (UniformSpec(4, 30), 4, Fraction(30 * 29 * 28 * 27, 30**4)),
])
def test_spectral_step_converges_in_few_iterations(spec, k, optimum):
    # near u the Hessian of F is a multiple of -I on the tangent space, and the
    # spectral step estimates that curvature: a fixed step 0.5 took 100-130
    # iterations on these instances
    idx = enumerate_independent_ksets(build_matroid(spec), k)
    rng = np.random.default_rng(17)
    for _ in range(6):
        start = Distribution(rng.dirichlet(np.ones(idx.m)), renormalize=True)
        result = maximize_F(idx, AscentConfig(start=start))
        assert result.converged
        assert result.iterations <= 25
        assert abs(result.value - float(optimum)) <= 1e-12


# (instance, seed of the Dirichlet start): F as float.hex, sha256 of p's bytes,
# iterations, evaluations and halvings.  A faster ascent or evaluator must give
# these bits; seed 3 halves one trial step on each instance
PINNED_ASCENTS = {
    ("U(4,30)", 1): ("0x1.9fbe76c8b4397p-1",
                     "2501a9f901195c4384539239c7db141e0b9469f7c785164bbfd42a49917b16bf", 9, 10, 0),
    ("U(4,30)", 2): ("0x1.9fbe76c8b439ap-1",
                     "1c8e9a7dec8b5f9e679f5de19229646fd313f8f5f4f2bdd183ac39d9b8291798", 8, 9, 0),
    ("U(4,30)", 3): ("0x1.9fbe76c8b4397p-1",
                     "6ebbe8312b66840b744441702e627c90e2cbe34eca1522a60b3fffdbbf73485a", 10, 12, 1),
    ("PG(4,2)", 1): ("0x1.5a7a50cb13117p-1",
                     "396c6b436ba8470fb47eff65e177902f64fe3e5a45b8fd326030bc55ce7769bd", 9, 10, 0),
    ("PG(4,2)", 2): ("0x1.5a7a50cb13117p-1",
                     "ebcba26044ad628205cbe8f53667f7ad42dcfa560eab8c1eefe828c0846ec0c2", 8, 9, 0),
    ("PG(4,2)", 3): ("0x1.5a7a50cb13119p-1",
                     "97dcaa1705af96bea89bc29a7d78b0611233c7af997bd94b473834c09d3a57ed", 11, 13, 1),
}


@pytest.mark.parametrize("name,spec", [("U(4,30)", UniformSpec(4, 30)),
                                       ("PG(4,2)", ProjectiveSpec(5, 2))])
def test_ascent_is_pinned_to_the_bit(name, spec):
    # e_K on U(4,30) and the chains of flats on PG(4,2), both at K=4
    idx = enumerate_independent_ksets(build_matroid(spec), 4)
    for seed in (1, 2, 3):
        start = Distribution(np.random.default_rng(seed).dirichlet(np.ones(idx.m)),
                             renormalize=True)
        result = maximize_F(idx, AscentConfig(start=start))
        got = (result.value.hex(), hashlib.sha256(result.p.probs.tobytes()).hexdigest(),
               result.iterations, result.evaluations, result.halvings)
        assert got == PINNED_ASCENTS[name, seed]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ascent_on_random_linear_matroids(data):
    matroid = data.draw(linear_matroids())
    k = data.draw(st.integers(1, matroid.rank))
    idx = enumerate_independent_ksets(matroid, k)
    w = np.array(data.draw(st.lists(st.floats(1e-9, 1.0), min_size=idx.m, max_size=idx.m)))
    start = Distribution(w / w.sum(), renormalize=True)
    points = []

    def recording_chains(index):
        evaluator = chains(index)

        def evaluate(x):
            points.append(x.copy())
            return evaluator.evaluate(x)

        return SimpleNamespace(evaluate=evaluate, gradient=evaluator.gradient)

    chains = optimize._chains
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_chains", recording_chains)
        result = maximize_F(idx, AscentConfig(start=start))
    assert result.converged
    trajectory = result.trajectory
    assert np.all(trajectory[1:] >= trajectory[:-1] * (1.0 - optimize.DECREASE_TOL))
    # every trial point, and so every iterate, is strictly inside the simplex
    assert result.evaluations == len(points)
    assert all(np.all(x > 0) for x in points)
    assert result.value >= eval_F(idx, start)


def test_curvature_fallback_on_a_non_matroid_layer():
    # log f = log(x0 x1 + x2 x3) is not concave on the simplex, and along this
    # ascent every curvature estimate is negative: each trial step falls back
    # to FIRST_STEP, so the iterates are those of the fixed-step ascent
    idx = enumerate_independent_ksets(build_matroid(ExplicitSpec(4, 2, ((0, 1), (2, 3)))), 2)
    start = Distribution([0.4, 0.3, 0.2, 0.1])
    result = maximize_F(idx, AscentConfig(max_iters=8, start=start))
    assert result.iterations == 8
    assert result.halvings == 0
    x = start.probs.copy()
    for value in result.trajectory[1:]:
        grad = np.array([x[1], x[0], x[3], x[2]]) / (x[0] * x[1] + x[2] * x[3])
        x = x * np.exp(optimize.FIRST_STEP * (grad - grad.max()))
        x /= x.sum()
        assert value == pytest.approx(2 * (x[0] * x[1] + x[2] * x[3]), rel=1e-12)
    result = maximize_F(idx, AscentConfig(start=start))
    assert np.all(np.diff(result.trajectory) >= -1e-12 * result.trajectory[:-1])
    assert result.value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("spec,k", [(ProjectiveSpec(3, 2), 3), (UniformSpec(3, 6), 3),
                                    (ExplicitSpec(4, 2, ((0, 1), (2, 3))), 2)])
def test_value_is_eval_F_at_the_returned_point(spec, k):
    # the chains of flats, e_K and a non-matroid's acceptor: eval_F reads the
    # ascent's evaluator, so the reported F is its value to the last bit
    idx = enumerate_independent_ksets(build_matroid(spec), k)
    weights = np.arange(1.0, idx.m + 1)
    result = maximize_F(idx, AscentConfig(start=Distribution(weights / weights.sum())))
    assert result.value == eval_F(idx, result.p)
    assert result.value == result.trajectory[-1]


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
