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
from math import comb, factorial, prod

import numpy as np

from .fields import PrimeField, _point_indices, nonzero_vectors
from .genpoly import (DEFAULT_ENUM_CAP, Distribution, IndepSetIndex, _centred, _chains, _Chains,
                      gaps_from_uniform, hessian_f, independent_set_index)
from .matroids import ProjectiveSpec, build_matroid, independent_count
from .streams import trial_blocks, trial_uniforms

NONUNIQUE_RATIO_THRESHOLD = 1e-6
HISTOGRAM_BINS = 20  # bins of the stability scan's ratio histogram
SCAN_CHUNK = 4096  # samples per block of the stability scan and of the CLI's identity checks


def gaussian_bracket(j: int, q: int) -> int:
    """[j]_q = (q**j - 1) / (q - 1): the number of projective points in the
    projectivization of a j-dimensional subspace.  [0]_q = 0."""
    if j < 0:
        raise ValueError(f"bracket index must be >= 0, got {j}")
    return (q**j - 1) // (q - 1)


def mobius_coefficients(n: int, q: int, k: int) -> tuple[int, ...]:
    """(c_1, ..., c_{k-1}), with F(p) = 1 + sum_r c_r sum_{rank-r flats U} p(U)^k
    on PG(n-1, q): the Möbius function mu(U, E) of the rank-k truncation,
    (-1)^(k-r) q^C(k-r, 2) [n-r-1 choose k-r-1]_q for a rank-r flat U
    (Rota 1964; Stanley, EC1 3.10), as exact integers.  The k draws span
    E with probability sum over the truncation's flats U of mu(U, E)
    p(U)^k, p(E) = 1 and p(empty) = 0."""
    PGParams(n, q, k)

    def binomial(top: int, j: int) -> int:  # [top choose j]_q
        return (prod(gaussian_bracket(top - i, q) for i in range(j))
                // prod(gaussian_bracket(i + 1, q) for i in range(j)))

    return tuple((-1) ** (k - r) * q ** comb(k - r, 2) * binomial(n - r - 1, k - r - 1)
                 for r in range(1, k))


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
        """The independent k-sets, counted in closed form, listed on first read."""
        return independent_set_index(build_matroid(ProjectiveSpec(self.n, self.q)), self.k,
                                     cap=cap)


def uniform_optimum(params: PGParams) -> Fraction:
    """Exact probability that k uniform projective points are independent.

    Computed as k! N / m**k from the count N of independent k-sets
    (:func:`~matroid_sampling.matroids.independent_count`), which equals
    prod_{j<k} (q**n - q**j) / (q**n - 1).
    """
    n, q, k = params.n, params.q, params.k
    return Fraction(factorial(k) * independent_count(ProjectiveSpec(n, q), k), params.m**k)


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

    It is entry (e, e2) of the Hessian of f at x = 1, taken by the index's
    evaluator with no scan of the sets (none is enumerated on e_K): a sum
    of nonnegative integers, exact while k! n_sets < 2**53.  For a
    projective matroid it is independent of the chosen pair and equals
    :func:`b2_explicit`.
    """
    if e == e2:
        raise ValueError("the two elements must be distinct")
    if not (0 <= e < idx.m and 0 <= e2 < idx.m):
        raise ValueError(f"elements must lie in [0, {idx.m})")
    if idx.k < 2:
        raise ValueError(f"pair count needs k >= 2, got k={idx.k}")
    return int(hessian_f(idx, np.ones(idx.m))[e, e2])


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
    # bincount adds the masses in vector order, as a loop over the vectors would
    return Distribution(np.bincount(_point_indices(nonzero_vectors(n, q), q),
                                    weights=vector_dist.probs))


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
    skipped: int

    @property
    def uniform_is_maximizer(self) -> bool:
        """No sample lies more than the threshold below uniform in R."""
        return self.min_ratio >= -NONUNIQUE_RATIO_THRESHOLD

    @property
    def nonunique_maximizer_detected(self) -> bool:
        """The minimum ratio is zero within the threshold: uniform is a
        maximizer and some direction leaves F flat to second order."""
        return abs(self.min_ratio) < NONUNIQUE_RATIO_THRESHOLD

    def to_json(self) -> dict:
        return {
            "min_R": self.min_ratio,
            "argmin": self.argmin.tolist(),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "mode": self.mode,
            "histogram": {"counts": self.histogram_counts.tolist(),
                          "edges": self.histogram_edges.tolist()},
            "uniform_is_maximizer": self.uniform_is_maximizer,
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
                   mode: str = "dirichlet", chunk: int = SCAN_CHUNK) -> StabilityScanReport:
    """Scan the stability ratio R over random simplex points.

    Reports the minimum ratio and its argmin.  A minimum within 1e-6 of
    zero flags a (numerically) non-unique maximizer, as happens for the
    parallel-class matroid where the maximizer set is a whole manifold; one
    below -1e-6 means uniform is not a maximizer at all.  Results depend
    only on (seed, n_samples, mode), not on the chunking.  Samples within
    1e-12 of u are skipped; ValueError if every sample is (R is undefined).

    ``chunk`` bounds the (chunk, 2m + 1) sample draw and the per-sample
    vectors.  The reported gaps come from :func:`gaps_from_uniform`,
    through the index's one evaluator in row blocks sized by
    GAP_BLOCK_BYTES (on the chains, two parts per node, each level summed
    one slot of covers at a time), so no (chunk, n_sets) or (chunk,
    covers) array is built.

    On a projective spec whose evaluator is the chains (K >= 3), each
    chunk is screened first: its ratios are taken from the flat masses
    by Möbius inversion (genpoly's _Chains.screen with
    :func:`mobius_coefficients`), each with a bound on its rounding
    error.  A sample goes through the chains only when its screened ratio
    less its bound is at most both the chunk's least screened ratio plus
    bound and the least ratio the chains gave so far.  No other sample can
    hold the chains' minimum, so ``min_R`` and the argmin are those of a
    scan that sends every sample through the chains, to the bit.  The
    histogram counts the screened ratios, so its edges may differ from
    that scan's in their last bits.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    spec, coefficients = getattr(idx._matroid, "spec", None), None
    if isinstance(spec, ProjectiveSpec) and isinstance(_chains(idx), _Chains):
        coefficients = mobius_coefficients(spec.n, spec.q, idx.k)
    best_ratio, best_p = np.inf, None
    ratios, kept = np.empty(n_samples), 0  # the kept samples' ratios, held once
    for pts in trial_blocks(lambda first, count: _scan_samples(seed, first, count, idx.m, mode),
                            n_samples, chunk):
        if coefficients is None:
            gaps, norm2 = gaps_from_uniform(idx, pts)
        else:
            w, norm2 = _centred(idx, pts)
            gaps, bounds = _chains(idx).screen(w, coefficients)
        keep = np.flatnonzero(norm2 > 1e-24)
        if not keep.size:
            continue
        chunk_ratios = ratios[kept:kept + keep.size]
        np.divide(gaps[keep], norm2[keep], out=chunk_ratios)
        kept += keep.size
        confirmed = chunk_ratios
        if coefficients is not None:  # the chains decide the rows that can hold the minimum
            slack = bounds[keep] / norm2[keep]
            keep = keep[chunk_ratios - slack <= min(np.min(chunk_ratios + slack), best_ratio)]
            if not keep.size:
                continue
            gaps, norm2 = gaps_from_uniform(idx, pts[keep])
            confirmed = gaps / norm2
        i = int(np.argmin(confirmed))
        if confirmed[i] < best_ratio:
            best_ratio = float(confirmed[i])
            best_p = pts[keep[i]].copy()
    if not kept:
        raise ValueError("every sample coincides with the uniform distribution; ratio undefined")
    ratios = ratios[:kept]
    lo, hi = float(ratios.min()), float(ratios.max())
    if hi - lo < 1e-9 * max(abs(lo), abs(hi), 1.0):
        lo, hi = lo - 0.5, hi + 0.5  # essentially constant data: pad the range
    counts, edges = np.histogram(ratios, bins=HISTOGRAM_BINS, range=(lo, hi))
    return StabilityScanReport(
        min_ratio=best_ratio,
        argmin=best_p,
        n_samples=n_samples,
        seed=seed,
        mode=mode,
        histogram_counts=counts,
        histogram_edges=edges,
        skipped=n_samples - kept,
    )
