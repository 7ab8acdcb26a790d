"""
Symmetry, orbits, and averaging
===============================

The optimality of the uniform distribution comes from two facts: the
independence polynomial is invariant under automorphisms, and its K-th
root is concave, so averaging a distribution over a group of
automorphisms can only increase it.  This script makes the chain
concrete:

* matrices in GL(N, q) act on projective points; the induced point
  permutations are automorphisms of PG(N-1, q);
* orbit averaging replaces each coordinate by its orbit mean, which
  equals averaging over the whole (never materialized) group;
* h never decreases along the way, and transitive actions average
  everything to the uniform point.
"""

import numpy as np

from matroid_sampling import (Distribution, FieldMatrix, PrimeField, ProjectiveSpec,
                              build_matroid, check_invariance,
                              enumerate_independent_ksets, eval_h,
                              is_transitive, orbit_average, orbits,
                              pgl_point_permutation)

fano = build_matroid(ProjectiveSpec(3, 2))
idx = enumerate_independent_ksets(fano, 3)
rng = np.random.default_rng(3)

print("Point permutations induced by GL(3, 2) matrices on the Fano plane:")
singer = FieldMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]], PrimeField(2))
perm = pgl_point_permutation(singer, fano)
print(f"  companion matrix of x^3 + x + 1 -> point map {perm.to_json()}")
print(f"  orbits of that single element: {orbits([perm])}")
print(f"  transitive: {is_transitive([perm])}")

p = Distribution(rng.dirichlet(np.ones(7)))
print(f"  |f(gp) - f(p)| on a random p: {check_invariance(idx, perm, p):.2e}")
print()

print("Averaging chain h(p) <= h(avg p) <= h(u):")
averaged = orbit_average([perm], p)
u = Distribution.uniform(7)
print(f"  h(p)      = {eval_h(idx, p):.12f}")
print(f"  h(avg p)  = {eval_h(idx, averaged):.12f}")
print(f"  h(u)      = {eval_h(idx, u):.12f}")
print(f"  avg p is uniform to {np.max(np.abs(averaged.probs - 1 / 7)):.1e}")
print()

print("A non-transitive subgroup averages within orbits only:")
transvection = FieldMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], PrimeField(2))
perm2 = pgl_point_permutation(transvection, fano)
print(f"  transvection point map {perm2.to_json()}")
print(f"  orbits: {orbits([perm2])}")
partial = orbit_average([perm2], p)
print(f"  h(p) = {eval_h(idx, p):.12f} <= h(partial avg) = {eval_h(idx, partial):.12f}"
      f" <= h(u) = {eval_h(idx, u):.12f}")
print()

print("Averaging over more and more random GL(3,2) elements approaches u:")
from matroid_sampling import apply_to_distribution, rank_over_fp


def random_invertible(rng):
    field = PrimeField(2)
    while True:
        mat = FieldMatrix(rng.integers(0, 2, size=(3, 3)), field)
        if rank_over_fp(mat) == 3:
            return mat


total = np.zeros(7)
checkpoints = {10, 50, 200}
for i in range(1, 201):
    g = pgl_point_permutation(random_invertible(rng), fano)
    total += apply_to_distribution(g, p).probs
    if i in checkpoints:
        print(f"  after {i:3d} elements: max |avg - u| = "
              f"{np.max(np.abs(total / i - 1 / 7)):.4f}")
