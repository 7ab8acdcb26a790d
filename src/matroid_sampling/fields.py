"""Exact arithmetic in prime fields F_p.

Matrices here are small and dense and all arithmetic is exact, so Gaussian
elimination runs on plain Python row lists with "first nonzero" pivoting
(an exact field needs no numerical pivoting).  The module also provides the
F_p^n vector utilities that the projective-geometry matroids are built on:
nonzero-vector enumeration and canonical projective representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

MAX_MODULUS = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for moduli below 2**16."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p; the modulus is checked prime at construction."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
            raise ValueError(f"field modulus must be an integer, got {p!r}")
        object.__setattr__(self, "p", int(p))
        if self.p < 2:
            raise ValueError(f"field modulus must be >= 2, got {self.p}")
        if self.p >= MAX_MODULUS:
            raise ValueError(f"field modulus {self.p} too large, must be < 2**16")
        if not is_prime(self.p):
            raise ValueError(f"field modulus {self.p} is not prime")


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """Dense matrix over F_p with entries in [0, p), row-major."""

    entries: np.ndarray
    field: PrimeField

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.field.p):
            raise ValueError(f"matrix entries must lie in [0, {self.field.p})")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def __repr__(self):
        return f"FieldMatrix({self.entries.tolist()}, p={self.field.p})"


def _rank_rows(rows, p: int) -> int:
    """Rank of a list of row vectors over F_p by forward elimination."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        for pivot in range(rank, nrows):
            if rows[pivot][col]:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        # columns left of col are zero in every row from rank down, so whole
        # rows can be combined; the pivot row is left unnormalized
        for r in range(rank + 1, nrows):
            row = rows[r]
            if row[col]:
                factor = row[col] * pow(prow[col], p - 2, p) % p
                rows[r] = [(x - factor * y) % p for x, y in zip(row, prow)]
        rank += 1
    return rank


def rank_over_fp(mat: FieldMatrix) -> int:
    """Rank of ``mat`` over its prime field."""
    return _rank_rows(mat.entries.tolist(), mat.field.p)


def nonzero_vectors(n: int, q: int) -> list[tuple[int, ...]]:
    """All q**n - 1 nonzero vectors of F_q^n, in lexicographic order."""
    PrimeField(q)
    if n < 1:
        raise ValueError(f"vector dimension must be >= 1, got {n}")
    return [v for v in product(range(q), repeat=n) if any(v)]


def canonical_point(v, q: int) -> tuple[int, ...]:
    """Canonical representative of the projective class of a nonzero vector.

    The representative is the unique scalar multiple whose first nonzero
    coordinate equals 1.
    """
    lead = next((x for x in v if x), 0)
    if lead == 0:
        raise ValueError("the zero vector has no projective class")
    if lead == 1:
        return tuple(int(x) for x in v)
    inv = pow(int(lead), q - 2, q)
    return tuple(int(x) * inv % q for x in v)


def projective_points(n: int, q: int) -> list[tuple[int, ...]]:
    """Canonical representatives of PG(n-1, q), sorted lexicographically.

    There are exactly (q**n - 1) / (q - 1) of them.
    """
    pts = sorted({canonical_point(v, q) for v in nonzero_vectors(n, q)})
    expected = (q**n - 1) // (q - 1)
    if len(pts) != expected:
        raise AssertionError(f"point count {len(pts)} != {expected}")
    return pts
