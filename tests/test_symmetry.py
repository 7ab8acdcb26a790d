import numpy as np
import pytest

from matroid_sampling import (Distribution, FieldMatrix, ParallelClassesSpec,
                              Permutation, PrimeField, ProjectiveSpec, UniformSpec,
                              apply_to_distribution, build_matroid, canonical_point,
                              check_invariance, enumerate_independent_ksets,
                              eval_h, is_transitive, orbit_average, orbits,
                              pgl_point_permutation, projective_points)
from conftest import (parallel_class_gens, random_invertible, singer_cycle,
                      symmetric_group_gens)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 3, 1])
    assert Permutation.identity(4).to_json() == [0, 1, 2, 3]


def test_permutation_compose_and_inverse():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = Permutation(rng.permutation(6))
        h = Permutation(rng.permutation(6))
        assert (g @ g.inverse()) == Permutation.identity(6)
        for e in range(6):
            assert (g @ h)(e) == g(h(e))


def test_apply_to_distribution():
    p = Distribution([0.5, 0.3, 0.2])
    assert np.array_equal(apply_to_distribution(Permutation.identity(3), p).probs, p.probs)
    swapped = apply_to_distribution(Permutation.transposition(3, 0, 1), p)
    assert swapped.probs.tolist() == [0.3, 0.5, 0.2]
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = Permutation(rng.permutation(3))
        back = apply_to_distribution(g.inverse(), apply_to_distribution(g, p))
        assert np.array_equal(back.probs, p.probs)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_to_distribution(Permutation.identity(3), Distribution([0.5, 0.5]))


def test_orbits_examples():
    assert orbits([Permutation.identity(4)]) == [[0], [1], [2], [3]]
    within = [Permutation.transposition(4, 0, 1), Permutation.transposition(4, 2, 3)]
    assert orbits(within) == [[0, 1], [2, 3]]
    with_swap = within + [Permutation([2, 3, 0, 1])]
    assert orbits(with_swap) == [[0, 1, 2, 3]]
    assert is_transitive(with_swap)
    assert not is_transitive(within)


def test_orbit_average_examples():
    p = Distribution([0.6, 0.1, 0.2, 0.1])
    gens = [Permutation.transposition(4, 0, 1), Permutation.transposition(4, 2, 3)]
    averaged = orbit_average(gens, p)
    assert averaged.probs == pytest.approx([0.35, 0.35, 0.15, 0.15], abs=1e-15)
    assert np.array_equal(orbit_average([Permutation.identity(4)], p).probs, p.probs)
    transitive = gens + [Permutation([2, 3, 0, 1])]
    assert orbit_average(transitive, p).probs == pytest.approx(np.full(4, 0.25), abs=1e-15)


def test_orbit_average_idempotent_exactly():
    rng = np.random.default_rng(43)
    gen_sets = [
        parallel_class_gens(3),
        symmetric_group_gens(7),
        [Permutation(rng.permutation(9)) for _ in range(2)],
    ]
    for gens in gen_sets:
        m = gens[0].m
        for _ in range(25):
            p = Distribution(rng.dirichlet(np.ones(m)))
            once = orbit_average(gens, p)
            twice = orbit_average(gens, once)
            assert np.array_equal(once.probs, twice.probs)


def test_orbit_average_equals_full_group_average():
    # materialize the group generated by the parallel-class generators by
    # closure, then compare the two averaging routes
    gens = parallel_class_gens(2)
    group = {tuple(Permutation.identity(4).image.tolist())}
    frontier = list(group)
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = tuple(g.image[np.array(current)].tolist())
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    rng = np.random.default_rng(44)
    p = Distribution(rng.dirichlet(np.ones(4)))
    total = np.zeros(4)
    for img in group:
        total += apply_to_distribution(Permutation(np.array(img)), p).probs
    direct = total / len(group)
    averaged = orbit_average(gens, p)
    assert averaged.probs == pytest.approx(direct, abs=1e-14)


def test_averaging_monotonicity():
    rng = np.random.default_rng(45)
    cases = [
        (build_matroid(ProjectiveSpec(3, 2)), 3, None),
        (build_matroid(ParallelClassesSpec(2)), 2, parallel_class_gens(2)),
        (build_matroid(UniformSpec(2, 5)), 2, symmetric_group_gens(5)),
    ]
    for matroid, k, gens in cases:
        if gens is None:
            gens = [singer_cycle(matroid)]
        idx = enumerate_independent_ksets(matroid, k)
        for _ in range(200):
            p = Distribution(rng.dirichlet(np.ones(matroid.m)))
            averaged = orbit_average(gens, p)
            assert eval_h(idx, averaged) >= eval_h(idx, p) - 1e-9


def test_transitive_average_is_uniform():
    rng = np.random.default_rng(46)
    for gens, m in [(symmetric_group_gens(6), 6), (parallel_class_gens(2), 4)]:
        assert is_transitive(gens)
        for _ in range(50):
            p = Distribution(rng.dirichlet(np.ones(m)))
            averaged = orbit_average(gens, p)
            assert np.max(np.abs(averaged.probs - 1.0 / m)) <= 1e-15


def test_check_invariance_automorphism(fano, fano_idx):
    rng = np.random.default_rng(47)
    g = singer_cycle(fano)
    for _ in range(20):
        p = Distribution(rng.dirichlet(np.ones(7)))
        assert check_invariance(fano_idx, g, p) <= 1e-12
    p = Distribution(rng.dirichlet(np.ones(7)))
    assert check_invariance(fano_idx, Permutation.identity(7), p) == 0.0


def test_check_invariance_non_automorphism(parallel2_idx):
    # swapping a single element across the classes is not an automorphism;
    # it moves unequal mass between the classes, so f changes
    g = Permutation([2, 1, 0, 3])
    p = Distribution([0.5, 0.2, 0.2, 0.1])
    assert check_invariance(parallel2_idx, g, p) > 1e-3


def test_pgl_identity_and_swap(pg12):
    ident = FieldMatrix(np.eye(2, dtype=int), PrimeField(2))
    assert pgl_point_permutation(ident, pg12) == Permutation.identity(3)
    swap = FieldMatrix([[0, 1], [1, 0]], PrimeField(2))
    perm = pgl_point_permutation(swap, pg12)
    index = {point: i for i, point in enumerate(projective_points(2, 2))}
    assert perm(index[(1, 0)]) == index[(0, 1)]
    assert perm(index[(0, 1)]) == index[(1, 0)]
    assert perm(index[(1, 1)]) == index[(1, 1)]


def test_pgl_rejects_singular(fano):
    singular = FieldMatrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]], PrimeField(2))
    with pytest.raises(ValueError, match="singular"):
        pgl_point_permutation(singular, fano)


def test_pgl_rejects_non_projective(parallel2):
    ident = FieldMatrix(np.eye(2, dtype=int), PrimeField(2))
    with pytest.raises(ValueError, match="projective"):
        pgl_point_permutation(ident, parallel2)


def test_pgl_is_group_homomorphism(fano):
    rng = np.random.default_rng(48)
    for _ in range(15):
        a = random_invertible(3, 2, rng)
        b = random_invertible(3, 2, rng)
        left = pgl_point_permutation(FieldMatrix((a.entries @ b.entries) % 2, a.field), fano)
        right = pgl_point_permutation(a, fano) @ pgl_point_permutation(b, fano)
        assert left == right


@pytest.mark.parametrize("n,q", [(2, 5), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3)])
def test_pgl_matches_per_point_reference(n, q):
    matroid = build_matroid(ProjectiveSpec(n, q))
    points = projective_points(n, q)
    index = {point: i for i, point in enumerate(points)}
    rng = np.random.default_rng(100 * n + q)
    for _ in range(5):
        a = random_invertible(n, q, rng)
        reference = [index[canonical_point([sum(int(a.entries[r, c]) * x[c] for c in range(n)) % q
                                            for r in range(n)], q)] for x in points]
        assert pgl_point_permutation(a, matroid).to_json() == reference


def test_pgl_rejects_wrong_shape_or_field(fano):
    with pytest.raises(ValueError, match="must be 3x3, got 2x3"):
        pgl_point_permutation(FieldMatrix([[1, 0, 0], [0, 1, 0]], PrimeField(2)), fano)
    with pytest.raises(ValueError, match="differs from point field"):
        pgl_point_permutation(FieldMatrix(np.eye(3, dtype=int), PrimeField(3)), fano)


def test_singer_cycle_is_transitive(fano):
    assert orbits([singer_cycle(fano)]) == [list(range(7))]


def test_averaging_over_random_pgl_elements_approaches_uniform(fano):
    rng = np.random.default_rng(49)
    p = Distribution(rng.dirichlet(np.ones(7)))
    total = np.zeros(7)
    count = 200
    for _ in range(count):
        g = pgl_point_permutation(random_invertible(3, 2, rng), fano)
        total += apply_to_distribution(g, p).probs
    assert np.max(np.abs(total / count - 1 / 7)) < 0.05
