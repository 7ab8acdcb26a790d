"""Permutation actions on distributions, orbits, and orbit averaging.

A permutation g acts on a distribution by (gp)_e = p_{g^{-1}(e)}.  Groups
are never materialized: a generator list determines orbits by union-find,
and averaging over the generated group equals averaging within each orbit
(every orbit element is hit equally often), which is what
:func:`orbit_average` computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldMatrix, canonical_point, projective_points, rank_over_fp
from .genpoly import Distribution, IndepSetIndex, eval_f
from .matroids import Matroid, ProjectiveSpec


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of 0..m-1, stored as its image vector."""

    image: np.ndarray

    def __post_init__(self):
        img = np.array(self.image, dtype=np.int64, copy=True)
        if img.ndim != 1 or img.size < 1:
            raise ValueError("permutation image must be a nonempty vector")
        m = img.size
        if img.min() < 0 or img.max() >= m or np.bincount(img, minlength=m).max() != 1:
            raise ValueError("image vector is not a permutation of 0..m-1")
        img.flags.writeable = False
        object.__setattr__(self, "image", img)

    @property
    def m(self) -> int:
        return self.image.size

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(np.arange(m))

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> "Permutation":
        img = np.arange(m)
        img[i], img[j] = img[j], img[i]
        return cls(img)

    def inverse(self) -> "Permutation":
        inv = np.empty(self.m, dtype=np.int64)
        inv[self.image] = np.arange(self.m)
        return Permutation(inv)

    def __matmul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self @ other)(e) = self(other(e))."""
        if self.m != other.m:
            raise ValueError("permutations act on different ground sizes")
        return Permutation(self.image[other.image])

    def __call__(self, e: int) -> int:
        return int(self.image[e])

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.image, other.image)

    def to_json(self) -> list[int]:
        return self.image.tolist()

    @classmethod
    def from_json(cls, data) -> "Permutation":
        return cls(np.asarray(data, dtype=np.int64))

    def __repr__(self):
        return f"Permutation({self.image.tolist()})"


def _check_generators(generators) -> int:
    gens = list(generators)
    if not gens:
        raise ValueError("generator list must be nonempty")
    m = gens[0].m
    for g in gens:
        if not isinstance(g, Permutation):
            raise ValueError(f"not a permutation: {g!r}")
        if g.m != m:
            raise ValueError("generators act on different ground sizes")
    return m


def apply_to_distribution(g: Permutation, p: Distribution) -> Distribution:
    """The pushforward gp with (gp)_e = p_{g^{-1}(e)}."""
    if g.m != len(p):
        raise ValueError(f"permutation on {g.m} elements applied to length-{len(p)} distribution")
    out = np.empty(g.m)
    out[g.image] = p.probs
    return Distribution(out)


def orbits(generators) -> list[list[int]]:
    """Orbits of the group generated by ``generators``, via union-find.

    Orbits are listed by smallest member and each is sorted, so the output
    is deterministic.
    """
    m = _check_generators(generators)
    parent = list(range(m))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for g in generators:
        for e in range(m):
            a, b = find(e), find(int(g.image[e]))
            if a != b:
                parent[max(a, b)] = min(a, b)

    groups: dict[int, list[int]] = {}
    for e in range(m):
        groups.setdefault(find(e), []).append(e)
    return [sorted(groups[root]) for root in sorted(groups)]


def is_transitive(generators) -> bool:
    return len(orbits(generators)) == 1


def orbit_average(generators, p: Distribution) -> Distribution:
    """Replace each coordinate by the mean of p over its orbit.

    This equals averaging p over the whole generated group.  The mean is
    computed with an offset (v0 + mean(v - v0)) so that re-averaging an
    already constant orbit reproduces it exactly, making the operation
    idempotent in floating point.
    """
    m = _check_generators(generators)
    if len(p) != m:
        raise ValueError(f"generators on {m} elements, distribution of length {len(p)}")
    out = np.empty(m)
    for orbit in orbits(generators):
        v = p.probs[orbit]
        out[orbit] = v[0] + (v - v[0]).mean()
    return Distribution(out)


def check_invariance(idx: IndepSetIndex, g: Permutation, p: Distribution) -> float:
    """|f(gp) - f(p)|: zero (to roundoff) when g is an automorphism."""
    return abs(eval_f(idx, apply_to_distribution(g, p)) - eval_f(idx, p))


def pgl_point_permutation(matrix: FieldMatrix, matroid: Matroid) -> Permutation:
    """The permutation of canonical projective points induced by an
    invertible matrix acting as v -> Av followed by re-canonicalization.

    Always an automorphism of the projective matroid.
    """
    if not isinstance(matroid.spec, ProjectiveSpec):
        raise ValueError("matroid was not built from a projective spec")
    n, q = matroid.spec.n, matroid.spec.q
    if matrix.field.p != q:
        raise ValueError(f"matrix field p={matrix.field.p} differs from point field q={q}")
    rows, cols = matrix.entries.shape
    if rows != n or cols != n:
        raise ValueError(f"matrix must be {n}x{n}, got {rows}x{cols}")
    if rank_over_fp(matrix) != n:
        raise ValueError("matrix is singular over F_q")
    points = projective_points(n, q)
    index = {point: i for i, point in enumerate(points)}
    # entries < 2**16 and n < 2**31, so the int64 product cannot overflow
    images = (np.array(points, dtype=np.int64) @ matrix.entries.T) % q
    return Permutation([index[canonical_point(v, q)] for v in images.tolist()])
