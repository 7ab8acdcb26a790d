"""The ascent's evaluators: f and its gradient summed over chains of flats,
as the elementary symmetric polynomial e_K on free truncations, or over
one chain per K-set on any other support.

The chains of flats are checked against exact rational sums over the
independent K-sets on random small linear matroids (loops and parallel
elements included), against the closed forms of projective geometries
(flat counts per rank, flat sizes, the optimum at u), against the float
K-set sums on the benchmark instances, and for their build memory.  A
support that is not a matroid must fail their exact check and get one
chain per K-set, which is checked against exact rational sums on random
supports.  The e_K evaluator is checked against exact rational sums over
all K-subsets, and the ascent on a uniform matroid must use it and never
build chains.
"""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import add_at_gradient, centered, kset_f, kset_gradient, linear_matroids
from matroid_sampling import (AscentConfig, Distribution, ExplicitSpec, IndepSetIndex,
                              PGParams, ProjectiveSpec, UniformSpec,
                              build_matroid, enumerate_independent_ksets, eval_f,
                              gaps_from_uniform, maximize_F, uniform_optimum)
from matroid_sampling.genpoly import (_build_chains, _chains, _Chains, _Elementary,
                                      _set_chains)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def weights(draw, m):
    """A point w / sum(w) with small integer weights, often with zeros, as Fractions."""
    low = draw(st.sampled_from((0, 1)))
    w = draw(st.lists(st.integers(low, 9), min_size=m, max_size=m).filter(any))
    return [Fraction(x, sum(w)) for x in w]


def assert_matches_kset_sums(evaluator, sets, p):
    f, state = evaluator.evaluate(np.array([float(x) for x in p]))
    f_exact = kset_f(sets, p)
    assert abs(Fraction(f) - f_exact) <= Fraction(1e-12) * f_exact
    # every component is a sum of nonnegative terms: a relative bound per entry
    for got, want in zip(evaluator.gradient(state), kset_gradient(sets, p), strict=True):
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * want


@PROPERTY
@given(st.data())
def test_chains_match_exact_kset_sums(data):
    matroid = data.draw(linear_matroids(fields=(2, 3, 5), max_dim=4, min_size=1, max_size=8))
    k = data.draw(st.integers(1, matroid.rank))
    # loops: ground elements in no independent set, placed among the others
    m = matroid.m + data.draw(st.integers(0, 2))
    place = sorted(data.draw(st.permutations(range(m)))[:matroid.m])
    sets = [tuple(place[e] for e in s) for s in combinations(range(matroid.m), k)
            if matroid.is_independent(s)]
    chains = _build_chains(IndepSetIndex(k, m, sets))
    assert chains is not None
    for _ in range(data.draw(st.integers(1, 3))):
        p = data.draw(weights(m))
        assert_matches_kset_sums(chains, sets, p)


@PROPERTY
@given(st.data())
def test_elementary_matches_exact_subset_sums(data):
    m = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, m))
    assert_matches_kset_sums(_Elementary(m, k), list(combinations(range(m), k)),
                             data.draw(weights(m)))


@PROPERTY
@given(st.data())
def test_set_chains_match_exact_sums_on_any_support(data):
    """Random K-subsets, most of them not the K-sets of a matroid."""
    k = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(k, 8))
    sets = data.draw(st.lists(st.sampled_from(list(combinations(range(m), k))),
                              min_size=1, max_size=12, unique=True))
    idx = IndepSetIndex(k, m, sets)
    points = data.draw(st.lists(weights(m), min_size=1, max_size=3))
    w = centered(np.array([[float(x) for x in p] for p in points]))
    f_u = kset_f(sets, [Fraction(1, m)] * m)
    for evaluator in (_set_chains(idx), _chains(idx)):
        for p in points:
            assert_matches_kset_sums(evaluator, sets, p)
        for p, gap in zip(points, evaluator.gaps(w), strict=True):
            assert abs(Fraction(gap) - factorial(k) * (f_u - kset_f(sets, p))) <= 1e-12


def test_free_truncations_ascend_on_ek_without_chains():
    idx = enumerate_independent_ksets(build_matroid(UniformSpec(4, 12)), 4)
    start = Distribution(np.arange(1, 13) / 78)
    result = maximize_F(idx, AscentConfig(start=start))
    assert isinstance(idx._chains, _Elementary)
    assert result.converged
    assert result.value == 24 * eval_f(idx, result.p)
    chains = _build_chains(idx)
    x = start.probs
    f, state = idx._chains.evaluate(x)
    f_chains, sweep = chains.evaluate(x)
    assert f == pytest.approx(f_chains, rel=1e-14)
    assert np.allclose(idx._chains.gradient(state), chains.gradient(sweep), rtol=1e-14, atol=0)


def gaussian_binomial(n, j, q):
    """[n choose j]_q, the number of (j-1)-dimensional subspaces of PG(n-1, q)."""
    count = Fraction(1)
    for i in range(j):
        count *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
    return int(count)


@pytest.mark.parametrize("n,q,k", [(3, 2, 3), (4, 2, 2), (4, 3, 3), (5, 2, 4)])
def test_projective_flats_and_optimum(n, q, k):
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(n, q)), k)
    m = idx.m
    chains = _build_chains(idx)
    counts = [lv.starts.size for lv in chains.levels]
    assert counts == [gaussian_binomial(n, j, q) for j in range(1, k)] + [1]
    if (n, q, k) == (5, 2, 4):
        assert counts == [31, 155, 155, 1]
    # at x = 1 every cover factor is |F \ F'|: flat sizes follow along the covers
    _, sweep = chains._sweep(np.ones(m))
    sizes = np.zeros(1)  # F_0 is empty: no loops
    for j, (lv, (d, _)) in enumerate(zip(chains.levels, sweep), start=1):
        per_cover = sizes[lv.src] + d
        flat_of_cover = np.repeat(np.arange(lv.starts.size), lv.counts)
        sizes = per_cover[lv.starts]
        assert np.array_equal(per_cover, sizes[flat_of_cover])
        assert np.all(sizes == (m if j == k else (q**j - 1) // (q - 1)))
    top, _ = chains._sweep(np.full(m, 1.0 / m))
    optimum = uniform_optimum(PGParams(n, q, k))
    assert abs(Fraction(top) - optimum) <= Fraction(1e-15) * optimum


@pytest.mark.parametrize("spec,k", [(ProjectiveSpec(5, 2), 4), (ProjectiveSpec(4, 3), 3),
                                    (UniformSpec(3, 12), 3), (UniformSpec(4, 9), 2)])
def test_chains_match_kset_evaluators(spec, k):
    idx = enumerate_independent_ksets(build_matroid(spec), k)
    chains = _build_chains(idx)
    rng = np.random.default_rng(3)
    for trial in range(4):
        x = rng.dirichlet(np.ones(idx.m))
        if trial % 2:
            x[rng.choice(idx.m, 3, replace=False)] = 0.0
        f, sweep = chains.evaluate(x)
        assert f == pytest.approx(eval_f(idx, x), rel=1e-13)
        want = add_at_gradient(idx, x)
        assert np.allclose(chains.gradient(sweep), want, rtol=1e-13, atol=0)


def test_non_matroid_support_gets_one_chain_per_set():
    idx = enumerate_independent_ksets(build_matroid(ExplicitSpec(4, 2, ((0, 1), (2, 3)))), 2)
    assert _build_chains(idx) is None
    start = Distribution([0.4, 0.3, 0.2, 0.1])
    result = maximize_F(idx, AscentConfig(max_iters=50, start=start))
    chains = _chains(idx)
    assert isinstance(chains, _Chains) and chains.orderings == 1
    assert [lv.src.size for lv in chains.levels] == [2, 2]
    assert result.value == 2 * eval_f(idx, result.p)
    assert result.value > 2 * eval_f(idx, start)


def test_chains_are_built_by_the_first_ascent_and_kept(fano_idx):
    idx = IndepSetIndex(fano_idx.k, fano_idx.m, fano_idx.sets)
    assert idx._chains is None
    maximize_F(idx)
    chains = idx._chains
    assert chains
    maximize_F(idx)
    assert idx._chains is chains


def test_chain_build_memory_is_bounded():
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(5, 2)), 4)
    _build_chains(enumerate_independent_ksets(build_matroid(ProjectiveSpec(3, 2)), 3))  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chains = _build_chains(idx)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chains is not None
    assert peak - before <= 2 * 2**20
    assert kept - before <= 2**19
