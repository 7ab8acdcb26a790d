import numpy as np
import pytest

from matroid_sampling import (FieldMatrix, ParallelClassesSpec, Permutation,
                              ProjectiveSpec, UniformSpec, build_matroid,
                              PrimeField, enumerate_independent_ksets,
                              pgl_point_permutation, rank_over_fp)


@pytest.fixture(scope="session")
def fano():
    return build_matroid(ProjectiveSpec(3, 2))


@pytest.fixture(scope="session")
def fano_idx(fano):
    return enumerate_independent_ksets(fano, 3)


@pytest.fixture(scope="session")
def pg12():
    """The projective line over F_2: three points, every pair independent."""
    return build_matroid(ProjectiveSpec(2, 2))


@pytest.fixture(scope="session")
def pg12_idx(pg12):
    return enumerate_independent_ksets(pg12, 2)


@pytest.fixture(scope="session")
def parallel2():
    return build_matroid(ParallelClassesSpec(2))


@pytest.fixture(scope="session")
def parallel2_idx(parallel2):
    return enumerate_independent_ksets(parallel2, 2)


@pytest.fixture(scope="session")
def uniform25():
    return build_matroid(UniformSpec(2, 5))


class CountingMatroid:
    """Forwards everything to a matroid and records each ``is_independent``
    query as a sorted tuple."""

    def __init__(self, matroid):
        self._matroid = matroid
        self.queries = []

    def __getattr__(self, name):
        return getattr(self._matroid, name)

    def is_independent(self, subset) -> bool:
        self.queries.append(tuple(sorted(int(e) for e in subset)))
        return self._matroid.is_independent(subset)


def symmetric_group_gens(m):
    """A transposition and an m-cycle generate the full symmetric group."""
    gens = [Permutation.transposition(m, 0, 1)] if m > 1 else []
    gens.append(Permutation(np.roll(np.arange(m), 1)))
    return gens


def parallel_class_gens(m_per_class, include_swap=True):
    """Within-class transpositions and cycles, plus the class-swap involution."""
    m = 2 * m_per_class
    gens = []
    if m_per_class > 1:
        gens.append(Permutation.transposition(m, 0, 1))
        gens.append(Permutation.transposition(m, m_per_class, m_per_class + 1))
        cyc = np.arange(m)
        cyc[:m_per_class] = np.roll(cyc[:m_per_class], 1)
        gens.append(Permutation(cyc))
    if include_swap:
        gens.append(Permutation(np.roll(np.arange(m), m_per_class)))
    if not gens:
        gens.append(Permutation.identity(m))
    return gens


def singer_cycle(matroid):
    """A PGL element acting as a single cycle on the points of PG(2, 2),
    induced by the companion matrix of x^3 + x + 1 over F_2."""
    companion = FieldMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]], PrimeField(2))
    return pgl_point_permutation(companion, matroid)


def random_invertible(n, q, rng):
    field = PrimeField(q)
    while True:
        mat = FieldMatrix(rng.integers(0, q, size=(n, n)), field)
        if rank_over_fp(mat) == n:
            return mat
