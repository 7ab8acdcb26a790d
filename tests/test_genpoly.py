import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import factorial
from time import perf_counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matroid_sampling import (Distribution, ExplicitSpec, IndepSetIndex, LinearSpec,
                              ParallelClassesSpec, ProjectiveSpec, UniformSpec, build_matroid,
                              concavity_probe, enumerate_independent_ksets,
                              eval_F, eval_f, eval_h, hessian_f, independent_set_index,
                              is_matroid_support)
from conftest import (CountingMatroid, add_at_gradient, kset_f, kset_hessian, linear_matroids,
                      singer_cycle)
from matroid_sampling.genpoly import _chains, _Elementary, _midpoint_check
from matroid_sampling.streams import trial_substream, trial_uniforms
from matroid_sampling.symmetry import apply_to_distribution


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def brute_force_ksets(matroid, k):
    return sorted(s for s in combinations(range(matroid.m), k)
                  if matroid.is_independent(s))


@st.composite
def enumeration_cases(draw):
    """(matroid, K) with 1 <= K <= rank: a linear matroid over F_2, F_3 or
    F_5 with some columns repeated (parallel elements), a small projective
    geometry, a uniform or parallel-class matroid, or an explicit layer,
    whose rank is at most its k."""
    kind = draw(st.sampled_from(("linear", "projective", "uniform", "parallel", "explicit")))
    if kind == "linear":
        q = draw(st.sampled_from((2, 3, 5)))
        dim = draw(st.integers(1, 4))
        column = st.tuples(*[st.integers(0, q - 1)] * dim).filter(any)
        columns = draw(st.lists(column, min_size=1, max_size=5))
        columns += draw(st.lists(st.sampled_from(columns), max_size=3))
        spec = LinearSpec(q, tuple(draw(st.permutations(columns))))
    elif kind == "projective":
        spec = ProjectiveSpec(*draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])))
    elif kind == "uniform":
        n = draw(st.integers(1, 8))
        spec = UniformSpec(draw(st.integers(1, n)), n)
    elif kind == "parallel":
        spec = ParallelClassesSpec(draw(st.integers(1, 4)))
    else:
        m = draw(st.integers(1, 8))
        k = draw(st.integers(1, m))
        layer = st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
        spec = ExplicitSpec(m, k, tuple(map(tuple, draw(st.lists(layer, min_size=1, max_size=6)))))
    matroid = build_matroid(spec)
    return matroid, draw(st.integers(1, matroid.rank))


@PROPERTY
@given(enumeration_cases())
@example((build_matroid(ProjectiveSpec(3, 2)), 3))
@example((build_matroid(ProjectiveSpec(3, 2)), 2))
@example((build_matroid(ProjectiveSpec(2, 2)), 2))
@example((build_matroid(ParallelClassesSpec(2)), 2))
def test_enumeration_matches_brute_force(case):
    matroid, k = case
    idx = enumerate_independent_ksets(matroid, k)
    assert [tuple(s) for s in idx.sets.tolist()] == brute_force_ksets(matroid, k)
    # the batch oracle agrees with the scalar one on every set, up to one past the rank
    for t in range(min(matroid.m, matroid.rank + 1) + 1):
        subsets = list(combinations(range(matroid.m), t))
        rows = np.array(subsets, dtype=np.int64).reshape(len(subsets), t)
        assert matroid.independent_rows(rows).tolist() == [matroid.is_independent(s)
                                                            for s in subsets]


@pytest.mark.parametrize("spec,k", [
    (ProjectiveSpec(4, 2), 3),
    (LinearSpec(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 0), (0, 0, 1), (2, 1, 1))), 3),
    (UniformSpec(4, 9), 4),
    (ParallelClassesSpec(3), 2),
])
def test_enumeration_asks_only_the_batch_oracle(spec, k):
    matroid = build_matroid(spec)
    expected = brute_force_ksets(matroid, k)

    def scalar(s):
        raise AssertionError(f"scalar oracle asked about {s}")

    matroid._oracle = scalar
    idx = enumerate_independent_ksets(matroid, k)
    assert [tuple(s) for s in idx.sets.tolist()] == expected


def test_enumeration_memory_on_pg_4_2():
    matroid = build_matroid(ProjectiveSpec(5, 2))
    tracemalloc.start()
    try:
        idx = enumerate_independent_ksets(matroid, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.n_sets == 26_040  # 833 kB of int64
    # the last level, the index's validated and sorted copies, and candidate
    # blocks of 16,384 (candidate, element) entries, whose F_2 stacks take 655 kB
    assert peak < 4 * idx.sets.nbytes


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


@pytest.mark.parametrize("spec,k,free", [
    (ProjectiveSpec(4, 2), 3, False),
    (ProjectiveSpec(5, 2), 4, False),
    (ProjectiveSpec(4, 3), 2, True),   # every pair of points is independent
    (UniformSpec(4, 30), 4, True),
    (UniformSpec(2, 5), 2, True),
])
def test_lazy_index_counts_without_the_oracle(spec, k, free):
    matroid = CountingMatroid(build_matroid(spec))
    idx = independent_set_index(matroid, k)
    want = enumerate_independent_ksets(build_matroid(spec), k)
    assert idx.n_sets == want.n_sets
    # the free test reads the count and the flats build the columns: neither
    # calls an oracle or reads the sets, which enumerate on first read
    assert isinstance(_chains(idx), _Elementary) == free
    assert matroid.queries == []
    assert idx._sets is None
    assert np.array_equal(idx.sets, want.sets)
    assert not idx.sets.flags.writeable
    assert matroid.queries


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
    with pytest.raises(ValueError, match="at least one set"):
        IndepSetIndex(2, 4, [])


@pytest.mark.parametrize("k,sets", [
    (2, [[0, 1, 2, 3]]),  # not the two sets {0, 1} and {2, 3}
    (2, [0, 1]),          # a set, not a row of sets
    (3, [[0, 1], [2, 3]]),
    (1, [[[0]], [[1]]]),
])
def test_index_rejects_rows_of_the_wrong_width(k, sets):
    with pytest.raises(ValueError, match=f"rows of {k} elements"):
        IndepSetIndex(k, 6, sets)


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


def gradient_f(idx, x):
    """The gradient of f from the index's evaluator."""
    evaluator = _chains(idx)
    return evaluator.gradient(evaluator.evaluate(x)[1])


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
        # the evaluator sums in another order; each entry adds nonnegative terms
        assert np.allclose(gradient_f(idx, x), add_at_gradient(idx, x), rtol=1e-13, atol=0)
        hess, want = hessian_f(idx, x), add_at_hessian(idx, x)
        assert np.allclose(hess, want, rtol=1e-13, atol=0)
        assert np.array_equal(hess == 0, want == 0)


LAYER = ExplicitSpec(4, 2, ((0, 1), (2, 3)))  # not a matroid


def route(idx):
    """The evaluator an index reads: e_K or the chains of its minimal
    acceptor."""
    return "e_K" if isinstance(_chains(idx), _Elementary) else "chains"


def assert_matches_exact_kset_sums(idx, x):
    """f and every Hessian entry within a relative 1e-13 of the exact
    rational K-set sums at x; exact zeros, the diagonal among them, stay
    zero, and the Hessian is exactly symmetric."""
    sets, p = idx.sets.tolist(), [Fraction(v) for v in x]
    want = kset_f(sets, p)
    assert abs(Fraction(eval_f(idx, x)) - want) <= Fraction(1e-13) * want
    hess = hessian_f(idx, x)
    assert np.array_equal(hess, hess.T)
    for got_row, want_row in zip(hess.tolist(), kset_hessian(sets, p), strict=True):
        for got, want in zip(got_row, want_row, strict=True):
            assert abs(Fraction(got) - want) <= Fraction(1e-13) * want


@pytest.mark.parametrize("spec,k,kind", [(UniformSpec(3, 6), 3, "e_K"),
                                         (ProjectiveSpec(3, 2), 3, "chains"),
                                         (LAYER, 2, "chains")])
def test_eval_f_and_hessian_match_exact_sums_on_every_evaluator(spec, k, kind):
    idx = enumerate_independent_ksets(build_matroid(spec), k)
    assert route(idx) == kind
    m = idx.m
    # x = 1 counts every K-set in each of its K! orders, exactly
    assert factorial(k) * eval_f(idx, np.ones(m)) == factorial(k) * idx.n_sets
    rng = np.random.default_rng(37)
    with_zeros = rng.random(m)
    with_zeros[rng.choice(m, 2, replace=False)] = 0.0
    for x in (np.ones(m), with_zeros, rng.dirichlet(np.ones(m)), np.full(m, 1 / m)):
        assert_matches_exact_kset_sums(idx, x)


@PROPERTY
@given(st.data())
def test_eval_f_and_hessian_match_exact_sums_on_random_matroids(data):
    matroid = data.draw(linear_matroids())
    k = data.draw(st.integers(1, matroid.rank))
    idx = enumerate_independent_ksets(matroid, k)
    coordinate = st.sampled_from((0.0, 1.0)) | st.floats(1e-3, 1.0)
    x = np.array(data.draw(st.lists(coordinate, min_size=idx.m, max_size=idx.m)))
    assert_matches_exact_kset_sums(idx, x)


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
    # the report recorded when each trial evaluated f twice per point, to the bit
    assert report.max_concavity_violation == float.fromhex("-0x1.890e9b3432000p-10")
    assert report.max_superlevel_violation == float.fromhex("-0x1.535c2542579d0p-4")


def test_concavity_probe_follows_the_stream_contract(fano_idx):
    # trial t's pair is the 2m uniforms of trial t's Philox substream
    report = concavity_probe(fano_idx, trials=20, seed=7)
    checks = []
    for t in range(20):
        u = trial_substream(7, t, 14).random(14)
        checks.append(_midpoint_check(fano_idx, u[:7], u[7:]))
    assert report.max_concavity_violation == max(h for h, _ in checks)
    assert report.max_superlevel_violation == max(s for _, s in checks)
    assert report.max_concavity_violation == float.fromhex("-0x1.df4caffce0600p-8")
    assert report.max_superlevel_violation == float.fromhex("-0x1.4646b8d324ba8p-2")


def test_concavity_probe_linear_case():
    # K = 1 makes the root linear: no violation beyond float re-association
    matroid = build_matroid(UniformSpec(1, 5))
    idx = enumerate_independent_ksets(matroid, 1)
    report = concavity_probe(idx, trials=500, seed=1)
    assert report.max_concavity_violation <= 1e-13
    assert report.max_superlevel_violation <= 1e-13
    assert report.max_concavity_violation == float.fromhex("0x1.0000000000000p-50")
    assert report.max_superlevel_violation == float.fromhex("-0x1.bb26588864800p-9")


def test_concavity_probe_draws_in_blocks():
    # 500 trials of 2 * 400 uniforms are 3.1 MiB at once; blocks of at most
    # GAP_BLOCK_BYTES (256 KiB) give the report of the unblocked draw
    idx = enumerate_independent_ksets(build_matroid(UniformSpec(1, 400)), 1)
    checks = [_midpoint_check(idx, row[:400], row[400:])
              for row in trial_uniforms(3, 0, 500, 800)]
    tracemalloc.start()
    try:
        report = concavity_probe(idx, trials=500, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert report.max_concavity_violation == max(h for h, _ in checks)
    assert report.max_superlevel_violation == max(s for _, s in checks)


def test_midpoint_check_equal_points_exact(fano_idx):
    rng = np.random.default_rng(36)
    x = rng.random(7)
    hv, sv = _midpoint_check(fano_idx, x, x)
    assert hv == 0.0
    assert sv == 0.0


def augments(sets):
    """Whether the shadow of the sets (all their subsets) satisfies the
    augmentation axiom, by brute force over every pair of shadow sets."""
    shadow = {frozenset(c) for s in sets for t in range(len(s) + 1) for c in combinations(s, t)}
    return all(any(small | {x} in shadow for x in big - small)
               for small in shadow for big in shadow if len(big) == len(small) + 1)


@st.composite
def small_supports(draw):
    """The index of a linear matroid over F_2 or F_3 on at most 8 columns
    at K <= 4, or of an explicit layer of 2..12 random K-sets, 2 <= K <= 4,
    on K + 1..8 elements, many of them not a matroid."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        m = draw(st.integers(k + 1, 8))
        sets = draw(st.lists(st.sampled_from(list(combinations(range(m), k))),
                             min_size=2, max_size=12, unique=True))
        return enumerate_independent_ksets(build_matroid(ExplicitSpec(m, k, tuple(sets))), k)
    matroid = draw(linear_matroids(max_dim=4, max_size=8))
    top = min(matroid.rank, 4)  # near the rank, where not every K-subset is independent
    return enumerate_independent_ksets(matroid, draw(st.integers(max(1, top - 1), top)))


@settings(PROPERTY, max_examples=150)
@given(small_supports())
def test_is_matroid_support_matches_brute_force_augmentation(idx):
    assert is_matroid_support(idx) == augments(idx.sets.tolist())


def test_is_matroid_support_memory_on_pg_4_2():
    idx = independent_set_index(build_matroid(ProjectiveSpec(5, 2)), 4)
    _chains(idx)  # the evaluator, prebuilt
    tracemalloc.start()
    try:
        assert is_matroid_support(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
