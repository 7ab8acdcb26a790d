"""Exact identities special to projective geometries PG(n-1, q).

Closed forms use big-integer rationals (`fractions.Fraction`), so the
optimal value, the pair count B2, and the Hessian coefficient are exact;
floating-point enters only when these are compared against the generic
polynomial machinery.  The module also provides the pushforward from
vector distributions to projective distributions, the exact K=2 gap
identity, and randomized stability-ratio scans over the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .fields import PrimeField, canonical_point, nonzero_vectors, projective_points
from .genpoly import (DEFAULT_ENUM_CAP, Distribution, IndepSetIndex,
                      enumerate_independent_ksets, gaps_from_uniform)
from .matroids import ProjectiveSpec, build_matroid, independent_count
from .streams import trial_uniforms

NONUNIQUE_RATIO_THRESHOLD = 1e-6
HISTOGRAM_BINS = 20  # bins of the stability scan's ratio histogram


def gaussian_bracket(j: int, q: int) -> int:
    """[j]_q = (q**j - 1) / (q - 1): the number of projective points in the
    projectivization of a j-dimensional subspace.  [0]_q = 0."""
    if j < 0:
        raise ValueError(f"bracket index must be >= 0, got {j}")
    return (q**j - 1) // (q - 1)


@dataclass(frozen=True)
class PGParams:
    """Dimension n, prime order q, and sample count k with 1 <= k <= n."""

    n: int
    q: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        PrimeField(self.q)
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def m(self) -> int:
        """Number of projective points, (q**n - 1) / (q - 1)."""
        return gaussian_bracket(self.n, self.q)

    def index(self, cap: int = DEFAULT_ENUM_CAP) -> IndepSetIndex:
        return enumerate_independent_ksets(build_matroid(ProjectiveSpec(self.n, self.q)),
                                           self.k, cap=cap)


def uniform_optimum(params: PGParams) -> Fraction:
    """Exact probability that k uniform projective points are independent.

    Computed as k! N / m**k from the count N of independent k-sets
    (:func:`~matroid_sampling.matroids.independent_count`) and cross-checked
    exactly against the equivalent form prod_j (q**n - q**j) / (q**n - 1).
    """
    n, q, k, m = params.n, params.q, params.k, params.m
    value = Fraction(factorial(k) * independent_count(ProjectiveSpec(n, q), k), m**k)
    alt = Fraction(1)
    for j in range(k):
        alt *= Fraction(q**n - q**j, q**n - 1)
    if value != alt:
        raise AssertionError(f"closed forms disagree: {value} vs {alt}")
    return value


def b2_explicit(params: PGParams) -> Fraction:
    """Number of independent k-sets through a fixed pair of distinct points,
    (1/(k-2)!) * prod_{j=2}^{k-1} (m - [j]_q).  PGL acts transitively on
    pairs, so double counting (set, pair) incidences gives it as
    N * C(k, 2) / C(m, 2) from the count N of independent k-sets."""
    if params.k < 2:
        raise ValueError(f"pair count needs k >= 2, got k={params.k}")
    k, m = params.k, params.m
    n_sets = independent_count(ProjectiveSpec(params.n, params.q), k)
    return Fraction(n_sets * k * (k - 1), m * (m - 1))


def b2_count(idx: IndepSetIndex, e: int, e2: int) -> int:
    """Count the independent k-sets of the index that contain both e and e2.

    For a projective matroid this is independent of the chosen pair and
    equals :func:`b2_explicit`.
    """
    if e == e2:
        raise ValueError("the two elements must be distinct")
    if not (0 <= e < idx.m and 0 <= e2 < idx.m):
        raise ValueError(f"elements must lie in [0, {idx.m})")
    if idx.k < 2:
        raise ValueError(f"pair count needs k >= 2, got k={idx.k}")
    rows = idx.sets
    return int(np.count_nonzero((rows == e).any(axis=1) & (rows == e2).any(axis=1)))


def hessian_coefficient(params: PGParams) -> Fraction:
    """Magnitude c = k! * B2 * m**-(k-2) such that the Hessian of the
    probability at the uniform point acts as -c * I on zero-sum vectors."""
    return factorial(params.k) * b2_explicit(params) / Fraction(params.m) ** (params.k - 2)


def k2_gap(params: PGParams, p, idx: IndepSetIndex | None = None) -> tuple[float, float]:
    """The two sides of the exact K=2 identity: returns

    (F(u) - F(p),  sum_e (p_e - u_e)**2),

    which agree to roundoff on any projective geometry.
    """
    if params.k != 2:
        raise ValueError(f"the exact gap identity needs k = 2, got k={params.k}")
    if idx is None:
        idx = params.index()
    dist = p if isinstance(p, Distribution) else Distribution(p)
    gaps, norm2 = gaps_from_uniform(idx, dist.probs[None, :])
    return float(gaps[0]), float(norm2[0])


class VectorDistribution:
    """A distribution on the nonzero vectors of F_q^n, in the lexicographic
    order produced by :func:`nonzero_vectors`."""

    __slots__ = ("probs", "n", "q")

    def __init__(self, probs, n: int, q: int, renormalize: bool = False):
        PrimeField(q)
        expected = q**n - 1
        v = np.asarray(probs, dtype=float)
        if v.ndim != 1 or v.size != expected:
            raise ValueError(f"need {expected} masses for the nonzero vectors of F_{q}^{n}")
        self.probs = Distribution(v, renormalize=renormalize).probs
        self.n = n
        self.q = q

    @classmethod
    def uniform(cls, n: int, q: int) -> "VectorDistribution":
        count = q**n - 1
        return cls(np.full(count, 1.0 / count), n, q, renormalize=True)


def pushforward(vector_dist: VectorDistribution) -> Distribution:
    """Project a vector distribution on F_q^n to PG(n-1, q): each point
    receives the total mass of its q-1 nonzero scalar multiples."""
    n, q = vector_dist.n, vector_dist.q
    points = projective_points(n, q)
    index = {pt: i for i, pt in enumerate(points)}
    out = np.zeros(len(points))
    for vec, mass in zip(nonzero_vectors(n, q), vector_dist.probs):
        out[index[canonical_point(vec, q)]] += mass
    return Distribution(out)


def stability_ratio(idx: IndepSetIndex, p) -> float:
    """R(p) = (F(u) - F(p)) / ||p - u||_2^2 around the uniform u, the
    quadratic stability ratio (numerator from :func:`gaps_from_uniform`)."""
    dist = p if isinstance(p, Distribution) else Distribution(p)
    gaps, norm2s = gaps_from_uniform(idx, dist.probs[None, :])
    gap, norm2 = float(gaps[0]), float(norm2s[0])
    if norm2 <= 1e-24:
        raise ValueError("p coincides with the uniform distribution; ratio undefined")
    return gap / norm2


@dataclass(frozen=True)
class StabilityScanReport:
    min_ratio: float
    argmin: np.ndarray
    n_samples: int
    seed: int
    mode: str
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    nonunique_maximizer_detected: bool
    skipped: int

    def to_json(self) -> dict:
        return {
            "min_R": self.min_ratio,
            "argmin": self.argmin.tolist(),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "mode": self.mode,
            "histogram": {"counts": self.histogram_counts.tolist(),
                          "edges": self.histogram_edges.tolist()},
            "nonunique_maximizer_detected": self.nonunique_maximizer_detected,
            "skipped": self.skipped,
        }


def _scan_samples(seed: int, first: int, count: int, m: int, mode: str) -> np.ndarray:
    """Simplex samples with per-sample counter-derived substreams.

    Mode "dirichlet" draws Dirichlet(1,..,1) via normalized exponentials.
    Mode "sparse" first restricts to a random support (size drawn uniformly
    from 1..m), putting weight on low-entropy regions near the boundary.
    Each sample owns a fixed budget of (2m + 1) doubles so the two modes
    stay aligned with the partition-independence contract.
    """
    u = trial_uniforms(seed, first, count, 2 * m + 1)
    gammas = -np.log1p(-u[:, 1 + m:])
    if mode == "dirichlet":
        weights = gammas
    elif mode == "sparse":
        sizes = 1 + np.minimum((u[:, 0] * m).astype(np.int64), m - 1)
        order = np.argsort(u[:, 1:1 + m], axis=1)
        # element order[i, j] has rank j in row i: keep the sizes[i] lowest ranks
        keep = np.argsort(order, axis=1) < sizes[:, None]
        weights = np.where(keep, gammas, 0.0)
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    totals = weights.sum(axis=1, keepdims=True)
    totals[totals == 0.0] = 1.0
    return weights / totals


def stability_scan(idx: IndepSetIndex, n_samples: int = 10_000, seed: int = 0,
                   mode: str = "dirichlet", chunk: int = 4096) -> StabilityScanReport:
    """Scan the stability ratio R over random simplex points.

    Reports the minimum ratio and its argmin; a minimum below 1e-6 flags a
    (numerically) non-unique maximizer, as happens for the parallel-class
    matroid where the maximizer set is a whole manifold.  Results depend
    only on (seed, n_samples, mode), not on the chunking.

    ``chunk`` bounds the (chunk, 2m + 1) sample draw and the per-sample
    vectors; the gaps are evaluated in row blocks of GAP_BLOCK_BYTES (see
    :func:`gaps_from_uniform`), so no (chunk, n_sets) array is built.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    m = idx.m
    best_ratio = np.inf
    best_p = np.full(m, 1.0 / m)
    ratios = []
    skipped = 0
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        pts = _scan_samples(seed, start, count, m, mode)
        gaps, norm2 = gaps_from_uniform(idx, pts)
        keep = norm2 > 1e-24
        skipped += int(count - keep.sum())
        if not np.any(keep):
            continue
        chunk_ratios = gaps[keep] / norm2[keep]
        ratios.append(chunk_ratios)
        i = int(np.argmin(chunk_ratios))
        if chunk_ratios[i] < best_ratio:
            best_ratio = float(chunk_ratios[i])
            best_p = pts[keep][i].copy()
    all_ratios = np.concatenate(ratios) if ratios else np.empty(0)
    lo, hi = 0.0, 1.0  # numpy's own range for no data
    if all_ratios.size:
        lo, hi = float(all_ratios.min()), float(all_ratios.max())
        if hi - lo < 1e-9 * max(abs(lo), abs(hi), 1.0):
            lo, hi = lo - 0.5, hi + 0.5  # essentially constant data: pad the range
    counts, edges = np.histogram(all_ratios, bins=HISTOGRAM_BINS, range=(lo, hi))
    return StabilityScanReport(
        min_ratio=best_ratio,
        argmin=best_p,
        n_samples=n_samples,
        seed=seed,
        mode=mode,
        histogram_counts=counts,
        histogram_edges=edges,
        nonunique_maximizer_detected=bool(best_ratio < NONUNIQUE_RATIO_THRESHOLD),
        skipped=skipped,
    )
