"""The degree-K independent-set generating polynomial and its calculus.

The polynomial is represented by the explicit list of its monomials, i.e.
the independent K-sets, enumerated once per (matroid, K) pair and cached in
an :class:`IndepSetIndex`.  Evaluations, gradients and Hessians all reuse
that support, as does the batched gap F(u) - F(p) around the uniform
point, which streams its batch through cache-sized row blocks so that its
working memory does not grow with the batch; sums are accumulated by
numpy's pairwise summation.  The
K-th root of the polynomial is concave on the nonnegative orthant, which
:func:`concavity_probe` checks empirically on random midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .matroids import Matroid, independent_count

SUM_TOL = 1e-12
REPAIR_TOL = 1e-6
DEFAULT_ENUM_CAP = 10**7
GAP_BLOCK_BYTES = 256 * 1024  # per row-block buffer of gaps_from_uniform


class Distribution:
    """A probability vector: nonnegative entries summing to 1 within 1e-12.

    With ``renormalize=True`` an input whose sum is off by at most 1e-6 is
    rescaled; larger deviations are rejected either way.
    """

    __slots__ = ("probs",)

    def __init__(self, probs, renormalize: bool = False):
        v = np.array(probs, dtype=float, copy=True)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("a distribution must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("distribution entries must be finite")
        if np.any(v < 0):
            raise ValueError("distribution entries must be nonnegative")
        total = float(v.sum())
        if abs(total - 1.0) > SUM_TOL:
            if renormalize and abs(total - 1.0) <= REPAIR_TOL:
                v = v / total
            else:
                raise ValueError(f"distribution sums to {total!r}, not 1")
        v.flags.writeable = False
        self.probs = v

    @classmethod
    def uniform(cls, m: int) -> "Distribution":
        return cls(np.full(m, 1.0 / m), renormalize=True)

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self):
        return f"Distribution({self.probs.tolist()})"


class IndepSetIndex:
    """All independent K-sets of a matroid, as a (count, K) index array.

    Rows are sorted increasingly within each set and lexicographically
    across sets; the array is immutable.
    """

    __slots__ = ("k", "m", "sets")

    def __init__(self, k: int, m: int, sets):
        arr = np.array(sets, dtype=np.int64, copy=True).reshape(-1, k)
        if arr.size:
            if arr.min() < 0 or arr.max() >= m:
                raise ValueError(f"set elements must lie in [0, {m})")
            if k > 1 and not np.all(np.diff(arr, axis=1) > 0):
                raise ValueError("each set must list distinct elements in increasing order")
            order = np.lexsort(arr.T[::-1])
            arr = arr[order]
            if len(arr) > 1 and np.any(np.all(arr[1:] == arr[:-1], axis=1)):
                raise ValueError("duplicate sets in index")
        arr.flags.writeable = False
        self.k = int(k)
        self.m = int(m)
        self.sets = arr

    @property
    def n_sets(self) -> int:
        return self.sets.shape[0]

    def __repr__(self):
        return f"IndepSetIndex(k={self.k}, m={self.m}, n_sets={self.n_sets})"


def enumerate_independent_ksets(matroid: Matroid, k: int,
                                cap: int = DEFAULT_ENUM_CAP) -> IndepSetIndex:
    """Enumerate { S independent : |S| = k } by depth-first prefix extension.

    Prefixes are grown in increasing index order and pruned via downward
    closure (a dependent prefix has no independent superset).  Raises when
    k is outside [1, rank] or when the count exceeds ``cap``; a count known
    in closed form (:func:`~matroid_sampling.matroids.independent_count`) is
    checked before the search starts.
    """
    if k < 1 or k > matroid.rank:
        raise ValueError(f"k={k} out of range [1, rank={matroid.rank}]")
    m = matroid.m
    known = independent_count(matroid.spec, k)
    if known is not None and known > cap:
        raise ValueError(f"enumeration exceeds cap of {cap} sets")
    out: list[tuple] = []
    prefix: list[int] = []

    def extend(start: int):
        if len(prefix) == k:
            if len(out) >= cap:
                raise ValueError(f"enumeration exceeds cap of {cap} sets")
            out.append(tuple(prefix))
            return
        # leave room for the remaining k - len(prefix) - 1 elements
        for e in range(start, m - (k - len(prefix)) + 1):
            prefix.append(e)
            if matroid.is_independent(prefix):
                extend(e + 1)
            prefix.pop()

    extend(0)
    arr = np.array(out, dtype=np.int64).reshape(len(out), k)
    return IndepSetIndex(k, m, arr)


def as_point(x, m: int) -> np.ndarray:
    """Coerce a Distribution or array-like to a nonnegative length-m vector."""
    v = x.probs if isinstance(x, Distribution) else np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != m:
        raise ValueError(f"point has shape {v.shape}, expected ({m},)")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("point coordinates must be finite and nonnegative")
    return v


def eval_f(idx: IndepSetIndex, x) -> float:
    """Sum over independent K-sets of the product of the set's coordinates."""
    v = as_point(x, idx.m)
    if idx.n_sets == 0:
        return 0.0
    return float(np.prod(v[idx.sets], axis=1).sum())


def eval_h(idx: IndepSetIndex, x) -> float:
    """The K-th root of eval_f; 0 where the polynomial vanishes."""
    f = eval_f(idx, x)
    if f == 0.0:
        return 0.0
    return float(f ** (1.0 / idx.k))


def eval_F(idx: IndepSetIndex, p) -> float:
    """K! times the polynomial at a distribution: the probability that K
    i.i.d. draws are distinct and form an independent set."""
    dist = p if isinstance(p, Distribution) else Distribution(p)
    return factorial(idx.k) * eval_f(idx, dist)


def gaps_from_uniform(idx: IndepSetIndex, pts) -> tuple[np.ndarray, np.ndarray]:
    """Per row p of a (batch, m) array: (F(u) - F(p), ||p - u||_2^2) around
    the uniform distribution u.

    Works with the centered variables w = m p - 1, projected to zero sum,
    and expands each monomial as u^K (prod(1 + w) - 1).  The expansion is
    split into its linear part and its order >= 2 remainder: summed over all
    sets the linear part is sum_e degree(e) w_e, whose mean-degree component
    multiplies sum(w) = 0 and is dropped analytically rather than left to
    cancel in floating point.  The computed gap therefore stays accurate
    relative to ||p - u||^2 even for p extremely close to u, which is what
    dividing by the squared norm requires.

    The order >= 2 remainder is accumulated over blocks of
    max(1, GAP_BLOCK_BYTES // (8 n_sets)) rows in four reused
    (rows, n_sets) buffers, so beyond the (batch, m) inputs and one
    transposed copy of the index the working memory is about
    4 max(GAP_BLOCK_BYTES, 8 n_sets) bytes whatever the batch size.  Each
    row's arithmetic and summation order do not depend on the blocking, so
    neither do the results.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != idx.m:
        raise ValueError(f"points have shape {pts.shape}, expected (batch, {idx.m})")
    m = idx.m
    w = pts * m - 1.0
    w -= w.mean(axis=1, keepdims=True)
    norm2 = np.einsum("ij,ij->i", w, w) / (m * m)
    batch, n_sets = pts.shape[0], idx.n_sets
    if n_sets == 0:
        return np.zeros(batch), norm2
    degrees = np.bincount(idx.sets.ravel(), minlength=m).astype(float)
    centered_deg = degrees - degrees.mean()  # exactly zero for regular supports
    rows = max(1, GAP_BLOCK_BYTES // (8 * n_sets))
    linear, higher, wj, tmp = (np.empty((min(rows, batch), n_sets)) for _ in range(4))
    higher_sums = np.empty(batch)
    columns = np.ascontiguousarray(idx.sets.T)  # contiguous indices gather faster
    for start in range(0, batch, rows):
        block = w[start:start + rows]
        r = block.shape[0]
        lin, hi, wb, tb = linear[:r], higher[:r], wj[:r], tmp[:r]
        # the j = 0 step would add (0 + 0) * w_0 to the remainder: skip it
        np.take(block, columns[0], axis=1, out=lin, mode="clip")
        hi.fill(0.0)
        for col in columns[1:]:
            np.take(block, col, axis=1, out=wb, mode="clip")
            np.add(lin, hi, out=tb)
            tb *= wb
            hi += tb
            lin += wb
        hi.sum(axis=1, out=higher_sums[start:start + r])
    total = higher_sums + w @ centered_deg
    gaps = -factorial(idx.k) * float(m) ** (-idx.k) * total
    return gaps, norm2


def gradient_f(idx: IndepSetIndex, x) -> np.ndarray:
    """Exact gradient of eval_f.

    Component e sums, over the sets containing e, the product of the other
    K-1 coordinates; computed with per-set prefix/suffix products so zero
    coordinates need no special casing.
    """
    v = as_point(x, idx.m)
    if idx.n_sets == 0:
        return np.zeros(idx.m)
    coords = v[idx.sets]
    k = idx.k
    left = np.empty_like(coords)
    right = np.empty_like(coords)
    left[:, 0] = 1.0
    right[:, k - 1] = 1.0
    for j in range(1, k):
        left[:, j] = left[:, j - 1] * coords[:, j - 1]
    for j in range(k - 2, -1, -1):
        right[:, j] = right[:, j + 1] * coords[:, j + 1]
    return np.bincount(idx.sets.ravel(), weights=(left * right).ravel(), minlength=idx.m)


def hessian_f(idx: IndepSetIndex, x) -> np.ndarray:
    """Exact Hessian of eval_f: zero diagonal (the polynomial is multi-affine),
    entry (e, e') sums the products of the remaining K-2 coordinates over the
    sets containing both e and e'."""
    v = as_point(x, idx.m)
    m = idx.m
    if idx.k < 2 or idx.n_sets == 0:
        return np.zeros((m, m))
    coords = v[idx.sets]
    k = idx.k
    keys, weights = [], []
    for a in range(k):
        for b in range(a + 1, k):
            others = [c for c in range(k) if c != a and c != b]
            vals = coords[:, others].prod(axis=1) if others else np.ones(idx.n_sets)
            keys += [idx.sets[:, a] * m + idx.sets[:, b], idx.sets[:, b] * m + idx.sets[:, a]]
            weights += [vals, vals]
    flat = np.bincount(np.concatenate(keys), weights=np.concatenate(weights), minlength=m * m)
    return flat.reshape(m, m)


def _midpoint_check(idx: IndepSetIndex, x, y) -> tuple[float, float]:
    """Signed midpoint violations (positive = violation) of

    * concavity of the K-th root:  (h(x)+h(y))/2 - h((x+y)/2),
    * superlevel convexity:        min(f(x), f(y)) - f((x+y)/2).
    """
    vx = as_point(x, idx.m)
    vy = as_point(y, idx.m)
    mid = (vx + vy) / 2.0
    h_violation = 0.5 * (eval_h(idx, vx) + eval_h(idx, vy)) - eval_h(idx, mid)
    s_violation = min(eval_f(idx, vx), eval_f(idx, vy)) - eval_f(idx, mid)
    return float(h_violation), float(s_violation)


@dataclass(frozen=True)
class ConcavityReport:
    trials: int
    seed: int
    max_concavity_violation: float
    max_superlevel_violation: float


def concavity_probe(idx: IndepSetIndex, trials: int = 1000, seed: int = 0) -> ConcavityReport:
    """Check midpoint concavity of the K-th root and midpoint superlevel
    convexity on random pairs of points in [0, 1)^m.

    Both reported maxima are signed; values <= ~1e-9 are the expected
    floating-point noise around the theoretical bound of 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst_h = -np.inf
    worst_s = -np.inf
    for _ in range(trials):
        x = rng.random(idx.m)
        y = rng.random(idx.m)
        hv, sv = _midpoint_check(idx, x, y)
        worst_h = max(worst_h, hv)
        worst_s = max(worst_s, sv)
    return ConcavityReport(trials, seed, worst_h, worst_s)
