"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import numpy as np

from matroid_sampling import (AscentConfig, Distribution, PGParams,
                              ParallelClassesSpec, ProjectiveSpec, UniformSpec,
                              VectorDistribution, b2_count, b2_explicit,
                              build_matroid, canonical_point, concavity_probe,
                              enumerate_independent_ksets, estimate_F, eval_F,
                              eval_h, hessian_coefficient, hessian_f, k2_gap,
                              maximize_F, nonzero_vectors, optimality_gap,
                              orbit_average, projective_points, pushforward,
                              stability_ratio, stability_scan, uniform_optimum)
from conftest import parallel_class_gens, singer_cycle, symmetric_group_gens


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"\n[{label}] FAIL")
        raise
    print(f"\n[{label}] PASS")


def dirichlet(rng, m):
    return Distribution(rng.dirichlet(np.ones(m)))


def test_criterion_1_closed_form_optimum():
    with criterion("criterion 1: closed-form optimum vs enumeration"):
        started = time.monotonic()
        anchors = {(2, 2, 2): Fraction(2, 3), (3, 2, 3): Fraction(24, 49),
                   (3, 3, 3): Fraction(108, 169)}
        for q in (2, 3):
            for n in range(1, 5):
                matroid = build_matroid(ProjectiveSpec(n, q))
                for k in range(1, n + 1):
                    params = PGParams(n, q, k)
                    exact = uniform_optimum(params)
                    idx = enumerate_independent_ksets(matroid, k)
                    assert Fraction(factorial(k) * idx.n_sets, matroid.m**k) == exact
                    if (n, q, k) in anchors:
                        assert exact == anchors[(n, q, k)]
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_k2_identity():
    with criterion("criterion 2: exact K=2 gap identity and unit ratio"):
        rng = np.random.default_rng(2024)
        for (n, q) in [(2, 2), (3, 2), (3, 3)]:  # PG(1,2), PG(2,2), PG(2,3)
            params = PGParams(n, q, 2)
            idx = params.index()
            for _ in range(100):
                p = dirichlet(rng, params.m)
                lhs, rhs = k2_gap(params, p, idx=idx)
                assert abs(lhs - rhs) <= 1e-12
                assert abs(stability_ratio(idx, p) - 1.0) <= 1e-12


def test_criterion_3_hessian_coefficient():
    with criterion("criterion 3: Hessian coefficient -K!B2/m^(K-2) on zero-sum vectors"):
        rng = np.random.default_rng(3033)
        for (n, q, k) in [(3, 2, 3), (3, 3, 3), (4, 2, 3), (4, 2, 4)]:
            matroid = build_matroid(ProjectiveSpec(n, q))
            idx = enumerate_independent_ksets(matroid, k)
            m = matroid.m
            params = PGParams(n, q, k)
            b2 = b2_explicit(params)
            assert b2_count(idx, 0, 1) == b2
            coefficient = float(hessian_coefficient(params))
            assert Fraction(factorial(k)) * b2 / m**(k - 2) == hessian_coefficient(params)
            hess = factorial(k) * hessian_f(idx, np.full(m, 1.0 / m))
            for _ in range(50):
                v = rng.standard_normal(m)
                v -= v.mean()
                quad = v @ hess @ v
                assert abs(quad + coefficient * (v @ v)) <= 1e-10 * coefficient * (v @ v)
        assert b2_count(PGParams(3, 2, 3).index(), 2, 5) == 4


def test_criterion_4_uniform_optimality_and_unique_vs_nonunique():
    with criterion("criterion 4: uniform optimality; unique vs non-unique maximizers"):
        started = time.monotonic()
        rng = np.random.default_rng(4044)
        battery = [
            (build_matroid(ProjectiveSpec(2, 2)), 2),
            (build_matroid(ProjectiveSpec(3, 2)), 3),
            (build_matroid(ProjectiveSpec(3, 3)), 2),
            (build_matroid(UniformSpec(2, 5)), 2),
            (build_matroid(UniformSpec(3, 6)), 3),
            (build_matroid(ParallelClassesSpec(2)), 2),
            (build_matroid(ParallelClassesSpec(3)), 2),
        ]
        for matroid, k in battery:
            idx = enumerate_independent_ksets(matroid, k)
            for _ in range(500):
                assert optimality_gap(idx, dirichlet(rng, matroid.m)) >= -1e-12

        def interior_start(m):
            p = np.maximum(rng.dirichlet(np.ones(m)), 1e-9)
            return Distribution(p / p.sum(), renormalize=True)

        for (n, q, k) in [(2, 2, 2), (3, 2, 3), (3, 3, 2)]:
            matroid = build_matroid(ProjectiveSpec(n, q))
            idx = enumerate_independent_ksets(matroid, k)
            for _ in range(10):
                result = maximize_F(idx, AscentConfig(start=interior_start(matroid.m)))
                assert np.linalg.norm(result.p.probs - 1.0 / matroid.m) <= 1e-6

        parallel = build_matroid(ParallelClassesSpec(2))
        idx = enumerate_independent_ksets(parallel, 2)
        nonuniform_seen = False
        for _ in range(10):
            result = maximize_F(idx, AscentConfig(start=interior_start(4)))
            assert abs(result.value - 0.5) <= 1e-10
            if np.linalg.norm(result.p.probs - 0.25) > 1e-3:
                nonuniform_seen = True
        assert nonuniform_seen, "all parallel-class runs landed on the uniform point"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_concavity_probes():
    with criterion("criterion 5: concavity and superlevel midpoint probes"):
        battery = [
            (build_matroid(ProjectiveSpec(3, 2)), 3),
            (build_matroid(ProjectiveSpec(2, 2)), 2),
            (build_matroid(ProjectiveSpec(3, 3)), 2),
            (build_matroid(ParallelClassesSpec(2)), 2),
            (build_matroid(UniformSpec(1, 4)), 1),
            (build_matroid(UniformSpec(3, 6)), 3),
        ]
        for seed, (matroid, k) in enumerate(battery, start=42):
            idx = enumerate_independent_ksets(matroid, k)
            report = concavity_probe(idx, trials=1000, seed=seed)
            assert report.max_concavity_violation <= 1e-9
            assert report.max_superlevel_violation <= 1e-9


def singer_cycle_pg12(matroid):
    from matroid_sampling import FieldMatrix, field_new, pgl_point_permutation
    companion = FieldMatrix([[0, 1], [1, 1]], field_new(2))  # x^2 + x + 1
    return pgl_point_permutation(companion, matroid)


def test_criterion_6_averaging_monotonicity():
    with criterion("criterion 6: orbit averaging never decreases h; transitive -> uniform"):
        rng = np.random.default_rng(6066)
        fano = build_matroid(ProjectiveSpec(3, 2))
        pg12 = build_matroid(ProjectiveSpec(2, 2))
        cases = [
            (fano, 3, [singer_cycle(fano)], True),
            (pg12, 2, [singer_cycle_pg12(pg12)], True),
            (build_matroid(ParallelClassesSpec(2)), 2, parallel_class_gens(2), True),
            (build_matroid(ParallelClassesSpec(3)), 2,
             parallel_class_gens(3, include_swap=False), False),
            (build_matroid(UniformSpec(2, 5)), 2, symmetric_group_gens(5), True),
        ]
        for matroid, k, gens, transitive in cases:
            idx = enumerate_independent_ksets(matroid, k)
            for _ in range(200):
                p = dirichlet(rng, matroid.m)
                averaged = orbit_average(gens, p)
                assert eval_h(idx, averaged) >= eval_h(idx, p) - 1e-9
                if transitive:
                    assert np.max(np.abs(averaged.probs - 1.0 / matroid.m)) <= 1e-15


def test_criterion_7_monte_carlo_consistency():
    with criterion("criterion 7: Monte Carlo within 4 standard errors; deterministic"):
        started = time.monotonic()
        rng = np.random.default_rng(7077)
        pg12 = build_matroid(ProjectiveSpec(2, 2))
        fano = build_matroid(ProjectiveSpec(3, 2))
        pg23 = build_matroid(ProjectiveSpec(3, 3))
        battery = [
            (pg12, 2, Distribution.uniform(3)),
            (pg12, 2, Distribution([0.5, 0.25, 0.25])),
            (fano, 3, Distribution.uniform(7)),
            (fano, 2, dirichlet(rng, 7)),
            (pg23, 2, Distribution.uniform(13)),
            (pg23, 3, Distribution.uniform(13)),
            (build_matroid(ParallelClassesSpec(2)), 2, Distribution.uniform(4)),
            (build_matroid(ParallelClassesSpec(3)), 2, dirichlet(rng, 6)),
            (build_matroid(UniformSpec(2, 5)), 2, dirichlet(rng, 5)),
            (build_matroid(UniformSpec(3, 6)), 3, Distribution.uniform(6)),
        ]
        assert len(battery) == 10
        for seed, (matroid, k, p) in enumerate(battery, start=100):
            idx = enumerate_independent_ksets(matroid, k)
            exact = eval_F(idx, p)
            est = estimate_F(matroid, p, k, 1_000_000, seed=seed)
            spread = max(est.std_err, 1e-12)
            assert abs(est.p_hat - exact) <= 4 * spread, (matroid.name, est.p_hat, exact)
        # chunking (the parallel partition of trials) cannot change results
        a = estimate_F(fano, Distribution.uniform(7), 3, 200_000, seed=100, chunk=65_536)
        b = estimate_F(fano, Distribution.uniform(7), 3, 200_000, seed=100, chunk=123_457)
        assert a.successes == b.successes
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_pushforward_equality_and_shortfall():
    with criterion("criterion 8: uniform-pushforward optimality; perturbations fall short"):
        rng = np.random.default_rng(8088)
        n, q = 3, 3
        points = projective_points(n, q)
        vectors = nonzero_vectors(n, q)
        index = {pt: i for i, pt in enumerate(points)}
        members = {i: [] for i in range(len(points))}
        for vec_i, vec in enumerate(vectors):
            members[index[canonical_point(vec, q)]].append(vec_i)
        m = len(points)

        def vector_dist_with_point_masses(point_masses, splits):
            probs = np.zeros(len(vectors))
            for i, mass in enumerate(point_masses):
                a, b = members[i]
                probs[a] = splits[i] * mass
                probs[b] = (1.0 - splits[i]) * mass
            return VectorDistribution(probs, n, q, renormalize=True)

        uniform_masses = np.full(m, 1.0 / m)
        three = [
            VectorDistribution.uniform(n, q),
            vector_dist_with_point_masses(uniform_masses, np.ones(m)),
            vector_dist_with_point_masses(uniform_masses, rng.random(m)),
        ]
        for k in (2, 3):
            params = PGParams(n, q, k)
            idx = params.index()
            exact = float(uniform_optimum(params))
            for vec_dist in three:
                projected = pushforward(vec_dist)
                assert abs(eval_F(idx, projected) - exact) <= 1e-12

        # perturbed pushforward: move mass t between two points
        t = 1e-3
        perturbed_masses = uniform_masses.copy()
        perturbed_masses[0] += t
        perturbed_masses[1] -= t
        vec_dist = vector_dist_with_point_masses(perturbed_masses, rng.random(m))
        norm2 = 2 * t * t
        params2 = PGParams(n, q, 2)
        projected = pushforward(vec_dist)
        gap2 = optimality_gap(params2.index(), projected)
        assert gap2 >= norm2 - 1e-12  # K=2: the gap IS the squared distance
        params3 = PGParams(n, q, 3)
        gap3 = optimality_gap(params3.index(), projected)
        predicted = 0.5 * float(hessian_coefficient(params3)) * norm2
        assert gap3 > 0
        assert gap3 >= 0.99 * predicted  # local quadratic prediction at small t


def test_criterion_9_stability_scan_substitute():
    with criterion("criterion 9: scan substitute for the global stability constant"):
        for (n, q, k) in [(2, 2, 2), (3, 2, 3), (3, 3, 2)]:
            matroid = build_matroid(ProjectiveSpec(n, q))
            idx = enumerate_independent_ksets(matroid, k)
            report = stability_scan(idx, n_samples=10_000, seed=9)
            assert report.min_ratio > 0
            assert not report.nonunique_maximizer_detected
        parallel = build_matroid(ParallelClassesSpec(2))
        idx = enumerate_independent_ksets(parallel, 2)
        report = stability_scan(idx, n_samples=10_000, seed=7)
        assert report.nonunique_maximizer_detected
        assert report.min_ratio < 1e-6
