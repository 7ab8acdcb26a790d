"""
Distributions on nonzero vectors and their projective pushforward
=================================================================

When matrix rows are drawn from a distribution P on the nonzero vectors
of F_q^N, only the induced distribution on projective points matters for
the rank: each point collects the mass of its q-1 scalar multiples.

Consequences explored here:

* any P whose pushforward is uniform on the points achieves the optimal
  full-rank probability; for q > 2 there are many such P, so the
  vector-level maximizer is never unique;
* a P whose pushforward deviates from uniform pays a quantifiable
  penalty (exactly the squared distance for K = 2).
"""

import numpy as np

from matroid_sampling import (PGParams, VectorDistribution, build_matroid,
                              canonical_point, enumerate_independent_ksets,
                              eval_F, nonzero_vectors, optimality_gap,
                              projective_points, pushforward, uniform_optimum)

n, q = 3, 3
params2 = PGParams(n, q, 2)
params3 = PGParams(n, q, 3)
points = projective_points(n, q)
vectors = nonzero_vectors(n, q)
m = len(points)
print(f"F_{q}^{n}: {len(vectors)} nonzero vectors, {m} projective points, "
      f"{len(vectors) // m} vectors per point")

index = {pt: i for i, pt in enumerate(points)}
members = {i: [] for i in range(m)}
for vec_i, vec in enumerate(vectors):
    members[index[canonical_point(vec, q)]].append(vec_i)

rng = np.random.default_rng(5)


def with_uniform_pushforward(splits):
    probs = np.zeros(len(vectors))
    for i in range(m):
        a, b = members[i]
        probs[a] = splits[i] / m
        probs[b] = (1 - splits[i]) / m
    return VectorDistribution(probs, n, q, renormalize=True)


candidates = {
    "uniform on all 26 vectors": VectorDistribution.uniform(n, q),
    "one representative per point": with_uniform_pushforward(np.ones(m)),
    "random split inside each point": with_uniform_pushforward(rng.random(m)),
}
for k, params in ((2, params2), (3, params3)):
    idx = params.index()
    exact = float(uniform_optimum(params))
    print(f"\nK = {k}: optimal probability {uniform_optimum(params)} = {exact:.12f}")
    for label, vec_dist in candidates.items():
        value = eval_F(idx, pushforward(vec_dist))
        print(f"  {label:32s}: F = {value:.15f} (deviation {abs(value - exact):.1e})")

print("\nPerturbing the pushforward costs probability:")
idx2 = params2.index()
idx3 = params3.index()
for t in (0.05, 0.01, 0.001):
    masses = np.full(m, 1 / m)
    masses[0] += t
    masses[1] -= t
    probs = np.zeros(len(vectors))
    for i in range(m):
        a, b = members[i]
        probs[a] = masses[i]
    vec_dist = VectorDistribution(probs, n, q, renormalize=True)
    projected = pushforward(vec_dist)
    gap2 = optimality_gap(idx2, projected)
    gap3 = optimality_gap(idx3, projected)
    print(f"  t = {t:5.3f}: ||p - u||^2 = {2 * t * t:.2e}, "
          f"gap(K=2) = {gap2:.6e}, gap(K=3) = {gap3:.6e}")
print("  (for K = 2 the gap equals the squared distance exactly)")
