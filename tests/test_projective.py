import math
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CountingMatroid, node_points
from matroid_sampling import (Distribution, ExplicitSpec, FieldMatrix, PGParams, PrimeField,
                              ProjectiveSpec, VectorDistribution, b2_count,
                              b2_explicit, build_matroid,
                              enumerate_independent_ksets, eval_F,
                              gaussian_bracket, hessian_coefficient, hessian_f,
                              k2_gap, mobius_coefficients, projective_points, pushforward,
                              rank_over_fp, stability_ratio, stability_scan, uniform_optimum)
from matroid_sampling import projective
from matroid_sampling.genpoly import _chains
from matroid_sampling.projective import HISTOGRAM_BINS


def test_gaussian_bracket():
    for q in (2, 3, 5):
        assert gaussian_bracket(0, q) == 0
        assert gaussian_bracket(1, q) == 1
    assert gaussian_bracket(2, 2) == 3
    assert gaussian_bracket(3, 2) == 7
    assert gaussian_bracket(2, 3) == 4
    assert gaussian_bracket(3, 3) == 13
    with pytest.raises(ValueError):
        gaussian_bracket(-1, 2)


def test_pg_params_validation():
    with pytest.raises(ValueError):
        PGParams(3, 4, 2)
    with pytest.raises(ValueError):
        PGParams(3, 2, 4)
    with pytest.raises(ValueError):
        PGParams(0, 2, 1)
    assert PGParams(3, 2, 3).m == 7
    assert PGParams(4, 3, 2).m == 40


def test_uniform_optimum_anchors():
    assert uniform_optimum(PGParams(2, 2, 2)) == Fraction(2, 3)
    assert uniform_optimum(PGParams(3, 2, 3)) == Fraction(24, 49)
    assert uniform_optimum(PGParams(3, 3, 3)) == Fraction(108, 169)


def test_uniform_optimum_two_forms_agree():
    # the function cross-checks the two product forms internally and raises
    # on disagreement, so evaluating is the test
    for q in (2, 3, 5):
        for n in range(1, 7):
            for k in range(1, n + 1):
                uniform_optimum(PGParams(n, q, k))


def test_uniform_optimum_matches_enumeration():
    for q in (2, 3):
        for n in range(1, 5):
            matroid = build_matroid(ProjectiveSpec(n, q))
            for k in range(1, n + 1):
                idx = enumerate_independent_ksets(matroid, k)
                exact = Fraction(factorial(k) * idx.n_sets, matroid.m**k)
                assert exact == uniform_optimum(PGParams(n, q, k))


def test_b2_explicit_values():
    assert b2_explicit(PGParams(2, 2, 2)) == 1
    assert b2_explicit(PGParams(5, 3, 2)) == 1
    assert b2_explicit(PGParams(3, 2, 3)) == 4
    assert b2_explicit(PGParams(3, 3, 3)) == 9
    assert b2_explicit(PGParams(4, 2, 4)) == 48
    with pytest.raises(ValueError):
        b2_explicit(PGParams(3, 2, 1))


def test_b2_count_matches_explicit(fano_idx, pg12_idx):
    assert b2_count(fano_idx, 0, 1) == 4
    assert b2_count(pg12_idx, 0, 1) == 1
    rng = np.random.default_rng(51)
    for (n, q, k) in [(3, 2, 3), (3, 3, 3), (4, 2, 3), (4, 2, 4)]:
        idx = PGParams(n, q, k).index()
        expected = b2_explicit(PGParams(n, q, k))
        for _ in range(20):
            e, e2 = rng.choice(idx.m, size=2, replace=False)
            assert b2_count(idx, int(e), int(e2)) == expected


def test_b2_count_on_every_pair_reads_no_set():
    """On PG(3,3) at K = 2 every pair of points is independent: the count
    comes from e_2, with no oracle call and no enumeration."""
    idx = PGParams(4, 3, 2).index()
    idx._matroid = counting = CountingMatroid(idx._matroid)
    assert b2_count(idx, 0, 1) == 1
    assert counting.queries == []
    assert idx._sets is None


def test_b2_count_errors(fano, fano_idx):
    with pytest.raises(ValueError, match="distinct"):
        b2_count(fano_idx, 2, 2)
    with pytest.raises(ValueError):
        b2_count(fano_idx, 0, 7)
    with pytest.raises(ValueError, match="k >= 2"):
        b2_count(enumerate_independent_ksets(fano, 1), 0, 1)


def test_hessian_coefficient_values():
    assert hessian_coefficient(PGParams(3, 2, 3)) == Fraction(24, 7)
    assert hessian_coefficient(PGParams(2, 2, 2)) == 2
    assert hessian_coefficient(PGParams(3, 3, 3)) == Fraction(54, 13)


@pytest.mark.parametrize("n,q,k", [(3, 2, 3), (3, 3, 3), (4, 2, 3), (4, 2, 4)])
def test_hessian_acts_as_scalar_on_tangent_space(n, q, k):
    matroid = build_matroid(ProjectiveSpec(n, q))
    idx = enumerate_independent_ksets(matroid, k)
    m = matroid.m
    coefficient = float(hessian_coefficient(PGParams(n, q, k)))
    hess = factorial(k) * hessian_f(idx, np.full(m, 1.0 / m))
    rng = np.random.default_rng(52)
    for _ in range(50):
        v = rng.standard_normal(m)
        v -= v.mean()
        quad = v @ hess @ v
        assert quad == pytest.approx(-coefficient * (v @ v), rel=1e-10)


def test_k2_gap_examples():
    params = PGParams(2, 2, 2)
    lhs, rhs = k2_gap(params, Distribution([0.5, 0.25, 0.25]))
    assert lhs == pytest.approx(1 / 24, abs=1e-15)
    assert rhs == pytest.approx(1 / 24, abs=1e-15)
    lhs, rhs = k2_gap(params, Distribution.uniform(3))
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = k2_gap(params, Distribution([1.0, 0.0, 0.0]))
    assert lhs == pytest.approx(2 / 3, abs=1e-15)
    assert rhs == pytest.approx(2 / 3, abs=1e-15)


def test_k2_gap_identity_random():
    rng = np.random.default_rng(53)
    for (n, q) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        params = PGParams(n, q, 2)
        idx = params.index()
        for _ in range(100):
            p = Distribution(rng.dirichlet(np.ones(params.m)))
            lhs, rhs = k2_gap(params, p, idx=idx)
            assert abs(lhs - rhs) <= 1e-12


def test_k2_gap_needs_k2():
    with pytest.raises(ValueError, match="k = 2"):
        k2_gap(PGParams(3, 2, 3), Distribution.uniform(7))


def test_pushforward_uniform_q2():
    projected = pushforward(VectorDistribution.uniform(2, 2))
    assert projected.probs == pytest.approx(np.full(3, 1 / 3), abs=1e-15)


def test_pushforward_uniform_q3():
    projected = pushforward(VectorDistribution.uniform(2, 3))
    assert projected.probs == pytest.approx(np.full(4, 0.25), abs=1e-15)


def test_pushforward_collapses_scalar_multiples():
    # masses 0.3 on v=(1,2) and 0.7 on 2v=(2,1) land on the same point
    from matroid_sampling import nonzero_vectors
    vecs = nonzero_vectors(2, 3)
    probs = np.zeros(len(vecs))
    probs[vecs.index((1, 2))] = 0.3
    probs[vecs.index((2, 1))] = 0.7
    projected = pushforward(VectorDistribution(probs, 2, 3))
    from matroid_sampling import projective_points
    point = projective_points(2, 3).index((1, 2))
    assert projected.probs[point] == 1.0
    assert projected.probs.sum() == 1.0


def test_pushforward_dimension_mismatch():
    with pytest.raises(ValueError):
        VectorDistribution(np.full(5, 0.2), 2, 3)


def test_vector_level_equality():
    # any vector distribution with uniform pushforward is optimal
    rng = np.random.default_rng(54)
    params = PGParams(3, 3, 3)
    idx = params.index()
    exact = float(uniform_optimum(params))
    for _ in range(3):
        split = rng.random(params.m)
        probs = np.empty(params.q**params.n - 1)
        from matroid_sampling import canonical_point, nonzero_vectors, projective_points
        points = projective_points(params.n, params.q)
        index = {pt: i for i, pt in enumerate(points)}
        by_point = {i: [] for i in range(params.m)}
        for vec_i, vec in enumerate(nonzero_vectors(params.n, params.q)):
            by_point[index[canonical_point(vec, params.q)]].append(vec_i)
        for i, members in by_point.items():
            s = split[i]
            probs[members[0]] = s / params.m
            probs[members[1]] = (1 - s) / params.m
        vec_dist = VectorDistribution(probs, params.n, params.q, renormalize=True)
        projected = pushforward(vec_dist)
        assert abs(eval_F(idx, projected) - exact) <= 1e-12


def test_stability_ratio_is_one_for_k2():
    rng = np.random.default_rng(55)
    for (n, q) in [(2, 2), (3, 2), (2, 3)]:
        params = PGParams(n, q, 2)
        idx = params.index()
        for _ in range(20):
            p = Distribution(rng.dirichlet(np.ones(params.m)))
            assert stability_ratio(idx, p) == pytest.approx(1.0, abs=1e-12)


def test_stability_ratio_local_limit(fano_idx):
    # along u + t(delta_0 - delta_1) the ratio tends to half the Hessian
    # coefficient, 12/7
    u = np.full(7, 1 / 7)
    direction = np.zeros(7)
    direction[0], direction[1] = 1.0, -1.0
    t = 1e-4
    ratio = stability_ratio(fano_idx, Distribution(u + t * direction))
    assert ratio == pytest.approx(12 / 7, abs=1e-2)


def test_stability_ratio_degenerate(fano_idx):
    with pytest.raises(ValueError, match="uniform"):
        stability_ratio(fano_idx, Distribution.uniform(7))


def test_stability_ratio_zero_on_maximizer_manifold(parallel2_idx):
    ratio = stability_ratio(parallel2_idx, Distribution([0.3, 0.2, 0.3, 0.2]))
    assert abs(ratio) <= 1e-12


def test_stability_scan_k2_identity(pg12_idx):
    report = stability_scan(pg12_idx, n_samples=10_000, seed=3)
    assert report.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert not report.nonunique_maximizer_detected


def test_stability_scan_validates_counts(fano_idx):
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        stability_scan(fano_idx, n_samples=0)
    for chunk in (0, -4):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            stability_scan(fano_idx, n_samples=100, chunk=chunk)


def test_stability_scan_fano_positive(fano_idx):
    report = stability_scan(fano_idx, n_samples=10_000, seed=7)
    assert report.min_ratio > 0
    assert not report.nonunique_maximizer_detected
    assert report.uniform_is_maximizer
    assert report.histogram_counts.sum() == 10_000 - report.skipped


def test_stability_scan_flags_nonunique_maximizer(parallel2_idx):
    report = stability_scan(parallel2_idx, n_samples=10_000, seed=7)
    assert 0 <= report.min_ratio < 1e-6
    assert report.nonunique_maximizer_detected
    assert report.uniform_is_maximizer


def test_stability_scan_flags_uniform_not_a_maximizer():
    # the layer {01, 23} is not a matroid: F(u) = 1/4 < F(1/2, 1/2, 0, 0) = 1/2
    layer = build_matroid(ExplicitSpec(4, 2, ((0, 1), (2, 3))))
    report = stability_scan(enumerate_independent_ksets(layer, 2), n_samples=10_000, seed=7)
    assert report.min_ratio < -0.9
    assert not report.uniform_is_maximizer
    assert not report.nonunique_maximizer_detected
    assert report.to_json()["uniform_is_maximizer"] is False


def test_stability_scan_deterministic_and_chunk_independent(fano_idx):
    a = stability_scan(fano_idx, n_samples=3000, seed=9, chunk=512)
    b = stability_scan(fano_idx, n_samples=3000, seed=9, chunk=3000)
    assert a.min_ratio == b.min_ratio
    assert np.array_equal(a.argmin, b.argmin)
    assert np.array_equal(a.histogram_counts, b.histogram_counts)


def test_stability_scan_holds_its_ratios_once():
    # PG(2,3) K=2 at 409,600 samples: one float per sample for the ratios, and
    # blocks that do not grow with the sample count; a second copy of the
    # ratios (3.1 MiB) would cross the bound
    idx = PGParams(3, 3, 2).index()
    stability_scan(idx, n_samples=100)  # the evaluator, prebuilt
    n = 409_600
    tracemalloc.start()
    try:
        report = stability_scan(idx, n_samples=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.histogram_counts.sum() == n - report.skipped
    assert peak < 8 * n + (4 << 20)


def test_stability_scan_skips_samples_at_u(fano_idx, monkeypatch):
    # every third sample is u itself: the scan skips those and reports the
    # minimum, argmin and histogram of the others, across ragged blocks
    draw = projective._scan_samples

    def with_u(seed, first, count, m, mode):
        pts = draw(seed, first, count, m, mode)
        pts[np.arange(first, first + count) % 3 == 0] = 1.0 / m
        return pts

    monkeypatch.setattr(projective, "_scan_samples", with_u)
    report = stability_scan(fano_idx, n_samples=300, seed=4, chunk=64)
    kept = with_u(4, 0, 300, 7, "dirichlet")[np.arange(300) % 3 != 0]
    ratios = [stability_ratio(fano_idx, p) for p in kept]
    assert report.skipped == 100
    assert report.histogram_counts.sum() == 200
    assert report.min_ratio == min(ratios)
    assert np.array_equal(report.argmin, kept[int(np.argmin(ratios))])


def test_stability_scan_sparse_mode(fano_idx):
    report = stability_scan(fano_idx, n_samples=2000, seed=11, mode="sparse")
    assert report.min_ratio > 0
    report2 = stability_scan(fano_idx, n_samples=2000, seed=11, mode="sparse", chunk=700)
    assert report.min_ratio == report2.min_ratio


def test_scan_report_serializes(fano_idx):
    report = stability_scan(fano_idx, n_samples=100, seed=1)
    data = report.to_json()
    assert set(data) >= {"min_R", "argmin", "n_samples", "seed", "histogram",
                         "uniform_is_maximizer", "nonunique_maximizer_detected"}
    assert len(data["histogram"]["counts"]) == HISTOGRAM_BINS
    assert len(data["histogram"]["edges"]) == HISTOGRAM_BINS + 1


def q_binomial(n: int, r: int, q: int) -> int:
    """[n choose r]_q, the number of r-dimensional subspaces of F_q^n, by
    the q-Pascal rule."""
    if r < 0 or r > n:
        return 0
    if r in (0, n):
        return 1
    return q_binomial(n - 1, r - 1, q) + q**r * q_binomial(n - 1, r, q)


def test_mobius_coefficients_closed_form():
    # PG(4,2) K=4: -2^3 [3 choose 2]_2, 2 [2 choose 1]_2, -1
    assert mobius_coefficients(5, 2, 4) == (-56, 6, -1)
    assert mobius_coefficients(3, 2, 3) == (2, -1)
    assert mobius_coefficients(4, 3, 1) == ()
    for n, q in ((3, 2), (4, 2), (3, 3), (5, 3), (6, 2)):
        for k in range(1, n + 1):
            want = tuple((-1) ** (k - r) * q ** math.comb(k - r, 2)
                         * q_binomial(n - r - 1, k - r - 1, q) for r in range(1, k))
            assert mobius_coefficients(n, q, k) == want
    for bad in ((3, 4, 2), (3, 2, 4), (3, 2, 0)):
        with pytest.raises(ValueError):
            mobius_coefficients(*bad)


# the flats of ranks 1..n-1 of PG(n-1, q), from the chains of its rank-n index
PG_FLATS = {(n, q): node_points(_chains(PGParams(n, q, n).index()))
            for n, q in ((3, 2), (4, 2), (3, 3))}


@pytest.mark.parametrize("n,q", sorted(PG_FLATS))
def test_node_points_are_the_flats(n, q):
    # level r lists [n choose r]_q distinct flats of [r]_q points each: every
    # r-dimensional subspace once, since each column spans one
    points = projective_points(n, q)
    for r, flats in enumerate(PG_FLATS[n, q], start=1):
        assert flats.shape == (gaussian_bracket(r, q), q_binomial(n, r, q))
        assert len({frozenset(col) for col in flats.T.tolist()}) == flats.shape[1]
        for col in flats.T:
            assert len(set(col.tolist())) == flats.shape[0]
            assert rank_over_fp(FieldMatrix([points[e] for e in col], PrimeField(q))) == r


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mobius_identity_is_exact(data):
    # (sum a)^K + sum_r c_r sum_U a(U)^K = K! sum over independent K-sets of
    # prod a_e, in integers, at integer weights a with zeros
    n, q = data.draw(st.sampled_from(sorted(PG_FLATS)))
    k = data.draw(st.integers(2, n))
    m = gaussian_bracket(n, q)
    a = data.draw(st.lists(st.integers(0, 30) | st.just(0), min_size=m, max_size=m))
    idx = PGParams(n, q, k).index()
    lhs = sum(a) ** k
    for c, flats in zip(mobius_coefficients(n, q, k), PG_FLATS[n, q]):
        lhs += c * sum(sum(a[e] for e in col) ** k for col in flats.T.tolist())
    assert lhs == factorial(k) * sum(prod(a[e] for e in s) for s in idx.sets.tolist())
