from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import strategies as st

from matroid_sampling import (FieldMatrix, IndepSetIndex, LinearSpec, ParallelClassesSpec,
                              Permutation,
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


@st.composite
def linear_matroids(draw, fields=(2, 3), max_dim=3, min_size=2, max_size=7):
    """A linear matroid over one of the prime ``fields`` on
    min_size..max_size nonzero columns of length 1..max_dim; repeated
    columns are parallel elements."""
    q = draw(st.sampled_from(fields))
    dim = draw(st.integers(1, max_dim))
    column = st.tuples(*[st.integers(0, q - 1)] * dim).filter(any)
    columns = draw(st.lists(column, min_size=min_size, max_size=max_size))
    return build_matroid(LinearSpec(q, tuple(columns)))


@st.composite
def supports(draw):
    """An index of random K-subsets of a ground set of at most 8
    elements, K <= 4, most of them not the K-sets of a matroid: three
    draws in four take 2..12 sets at K >= 2 on m >= K + 2 elements (every
    family of K-subsets of K + 1 elements is a matroid), the rest 1..12
    sets at 1 <= K <= m, so that K = 1 and m = K stay reachable."""
    wide = draw(st.integers(0, 3)) > 0
    k = draw(st.integers(1 + wide, 4))
    m = draw(st.integers(k + 2 * wide, 8))
    sets = draw(st.lists(st.sampled_from(list(combinations(range(m), k))),
                         min_size=1 + wide, max_size=12, unique=True))
    return IndepSetIndex(k, m, sets)


def with_loops(data, matroid, k):
    """(the independent K-sets of a matroid with 0..2 loops placed among its
    elements, the new ground size, the place of each old element)."""
    m = matroid.m + data.draw(st.integers(0, 2))
    place = sorted(data.draw(st.permutations(range(m)))[:matroid.m])
    sets = [tuple(place[e] for e in s) for s in combinations(range(matroid.m), k)
            if matroid.is_independent(s)]
    return sets, m, place


def node_points(chains):
    """Per level t = 1..K-1 of a _Chains evaluator, the points of its nodes
    (on a matroid, the rank-t flats) as a (points, nodes) array padded with
    m: a node is its first cover's source plus that cover's difference set."""
    points, listed = np.empty((0, 1), dtype=np.int64), []
    for lv in chains.levels[:-1]:
        points = np.concatenate((points[:, lv.src[lv.starts]], lv.diff[:, lv.starts]))
        listed.append(points)
    return listed


def centered(pts):
    """The rows of a (batch, m) array as w = m p - 1, projected to zero sum."""
    m = pts.shape[1]
    w = pts * m - 1.0
    return w - w.mean(axis=1, keepdims=True)


def kset_f(sets, p):
    """f summed term by term over the sets: exact when p holds Fractions."""
    return sum(prod(p[e] for e in s) for s in sets)


def kset_gradient(sets, p):
    """The gradient of kset_f: entry i sums, over the sets holding i, the
    product of their other coordinates."""
    return [sum(prod(p[e] for e in s if e != i) for s in sets if i in s) for i in range(len(p))]


def kset_hessian(sets, p):
    """The Hessian of kset_f: entry (i, j), i != j, sums over the sets
    holding both i and j the product of their other coordinates; the
    diagonal is 0.  Exact when p holds Fractions."""
    m = len(p)
    hess = [[0] * m for _ in range(m)]
    for s in sets:
        for i in s:
            for j in s:
                if i != j:
                    hess[i][j] += prod(p[e] for e in s if e not in (i, j))
    return hess


def add_at_gradient(idx, x):
    """The gradient of f over the index's K-sets in floats: prefix/suffix
    products scattered by np.add.at in row-major order."""
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


def greedy_rank(matroid, subset):
    """The rank of a set of elements: the size of the independent set that
    the greedy scan of its sorted elements builds."""
    chain = []
    for e in sorted(set(subset)):
        chain.append(e)
        if not matroid.is_independent(chain):
            chain.pop()
    return len(chain)


class CountingMatroid:
    """Forwards everything to a matroid and records each ``is_independent``
    query, and each row of each ``independent_rows`` batch, as a sorted
    tuple."""

    def __init__(self, matroid):
        self._matroid = matroid
        self.queries = []

    def __getattr__(self, name):
        return getattr(self._matroid, name)

    def is_independent(self, subset) -> bool:
        self.queries.append(tuple(sorted(int(e) for e in subset)))
        return self._matroid.is_independent(subset)

    def independent_rows(self, rows):
        self.queries.extend(map(tuple, np.asarray(rows).tolist()))
        return self._matroid.independent_rows(rows)


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
