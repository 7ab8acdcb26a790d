from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroid_sampling import (FieldMatrix, PrimeField, ProjectiveSpec, build_matroid,
                              canonical_point, nonzero_vectors, projective_points,
                              rank_over_fp)
from conftest import random_invertible
from matroid_sampling.fields import _rank_rows


def test_field_new_accepts_small_primes():
    for p in (2, 3, 5, 7, 65521):
        assert PrimeField(p).p == p


def test_field_new_rejects_composites():
    for p in (4, 6, 9, 1, 0, 65535):
        with pytest.raises(ValueError):
            PrimeField(p)


def test_field_new_rejects_oversized_modulus():
    with pytest.raises(ValueError, match="too large"):
        PrimeField(65537)  # prime, but >= 2**16


def test_rank_examples():
    f2, f3 = PrimeField(2), PrimeField(3)
    assert rank_over_fp(FieldMatrix(np.eye(3, dtype=int), f2)) == 3
    assert rank_over_fp(FieldMatrix([[1, 0], [0, 1], [1, 1]], f2)) == 2
    assert rank_over_fp(FieldMatrix([[0, 0], [0, 0]], f3)) == 0


@st.composite
def small_matrices(draw):
    """0..4 rows of length 1..5 over F_2, F_3 or F_5."""
    q = draw(st.sampled_from((2, 3, 5)))
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                         max_size=4))
    return q, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_rank_matches_row_space_size(matrix):
    # the row space of a rank-r matrix over F_q has exactly q**r vectors
    q, rows = matrix
    span = {tuple(sum(c * x for c, x in zip(coeffs, column)) % q for column in zip(*rows))
            for coeffs in product(range(q), repeat=len(rows))} if rows else {()}
    rank = _rank_rows(rows, q)
    assert q**rank == len(span)


def test_entries_validated():
    with pytest.raises(ValueError):
        FieldMatrix([[2, 0], [0, 1]], PrimeField(2))
    with pytest.raises(ValueError):
        FieldMatrix([[-1, 0]], PrimeField(3))


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(11)
    for _ in range(40):
        q = int(rng.choice([2, 3, 5]))
        rows, cols = rng.integers(1, 7, size=2)
        mat = FieldMatrix(rng.integers(0, q, size=(rows, cols)), PrimeField(q))
        assert rank_over_fp(mat) == rank_over_fp(FieldMatrix(mat.entries.T, mat.field))


def test_rank_invariant_under_row_operations():
    rng = np.random.default_rng(12)
    for _ in range(40):
        q = int(rng.choice([2, 3, 5]))
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        arr = rng.integers(0, q, size=(rows, cols))
        base = rank_over_fp(FieldMatrix(arr, PrimeField(q)))
        i, j = rng.choice(rows, size=2, replace=False)
        swapped = arr.copy()
        swapped[[i, j]] = swapped[[j, i]]
        assert rank_over_fp(FieldMatrix(swapped, PrimeField(q))) == base
        scaled = arr.copy()
        scaled[i] = scaled[i] * int(rng.integers(1, q)) % q
        assert rank_over_fp(FieldMatrix(scaled, PrimeField(q))) == base
        added = arr.copy()
        added[i] = (added[i] + added[j]) % q
        assert rank_over_fp(FieldMatrix(added, PrimeField(q))) == base


def test_rank_of_sampled_rows_matches_projective_subset_rank():
    # rows drawn (with repetition) from the rows of an invertible matrix have
    # rank equal to the matroid rank of the set of distinct projective classes
    rng = np.random.default_rng(13)
    for q in (2, 3):
        matroid = build_matroid(ProjectiveSpec(3, q))
        index = {point: i for i, point in enumerate(projective_points(3, q))}
        for _ in range(25):
            inv = random_invertible(3, q, rng)
            picks = rng.integers(0, 3, size=int(rng.integers(1, 6)))
            rows = [inv.entries[i].tolist() for i in picks]
            classes = {index[canonical_point(r, q)] for r in rows}
            mat = FieldMatrix(np.array(rows) % q, PrimeField(q))
            assert rank_over_fp(mat) == matroid.subset_rank(classes)


def test_nonzero_vector_count_and_order():
    vecs = nonzero_vectors(2, 3)
    assert len(vecs) == 8
    assert vecs == sorted(vecs)
    assert (0, 0) not in vecs


def test_canonical_point():
    assert canonical_point((2, 1), 3) == (1, 2)  # scaled by 2^{-1} = 2
    assert canonical_point((0, 2), 3) == (0, 1)
    with pytest.raises(ValueError):
        canonical_point((0, 0), 3)


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5)])
def test_projective_point_count(n, q):
    pts = projective_points(n, q)
    assert len(pts) == (q**n - 1) // (q - 1)
    assert all(p[[x != 0 for x in p].index(True)] == 1 for p in pts)
