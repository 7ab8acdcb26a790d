"""The degree-K independent-set generating polynomial and its calculus.

The polynomial's monomials are the independent K-sets, held once per
(matroid, K) pair in an :class:`IndepSetIndex`.
:func:`enumerate_independent_ksets` grows them level by level, from the
independent t-sets to the (t+1)-sets, and decides each level's candidates
in blocks with one call of the matroid's batch oracle
(:meth:`~matroid_sampling.matroids.Matroid.independent_rows`) per block.
:func:`independent_set_index` returns the same index, but where the count
has a closed form (uniform and projective families) it takes the count
from the spec, at any size, and enumerates only when the sets are read.

Every float value of the polynomial goes through one private evaluator,
built from the index on first use and cached on it (:func:`_chains`):
f, h and F (:func:`eval_f`, :func:`eval_h`, :func:`eval_F`), the
gradient that the ascent (:func:`~matroid_sampling.optimize.maximize_F`)
follows, the Hessian (:func:`hessian_f`), and the batched gap
F(u) - F(p) around the uniform point (:func:`gaps_from_uniform`, which
the stability scan and the identity checks call):

* when the support holds every K-subset of the ground set, f is the
  elementary symmetric polynomial e_K, evaluated in O(mK) with no build
  and, on a lazy index, with no enumeration: the test reads only the count;
* when the index knows a column matroid (linear, projective and
  parallel-class specs, matroids by construction), the chains of the
  flats of its rank-K truncation, built from its columns with no K-set
  read and no rank test (:func:`_flats`): a few thousand flats where
  the index may count 10^8 K-sets.  A level of flats times m, or of
  covers' packed bytes, over the index's cap is refused;
* otherwise, the chains of the support's minimal acceptor, whose nodes
  group the t-sets with the same completions to a K-set and whose sum
  counts every K-set in each of its K! orders, exactly, on any support.
  On a matroid its nodes are those flats, and its levels equal the flats
  build's.  The build refuses a support whose subsets of the K-sets
  outnumber the index's cap, the one its enumeration ran under.

On a projective geometry the chains' nodes are also the flats of
Möbius inversion, F(p) = 1 + sum_r c_r sum_U p(U)^K: _Chains.screen
takes the gaps from one K-th power per flat, with a bound on their
rounding error.  The stability scan screens its samples with it and
sends only those that can hold the minimum through the chains, so
every gap it reports is the chains'.

On a matroid support, which :func:`is_matroid_support` decides exactly,
the K-th root of the polynomial is concave on the nonnegative orthant;
:func:`concavity_probe` checks that empirically on random midpoints.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from .matroids import _BUILD_BLOCK, Matroid, _keys, _subset_keys, independent_count
from .streams import DOUBLES_PER_BLOCK, blocks_per_trial, trial_blocks, trial_uniforms

SUM_TOL = 1e-12
REPAIR_TOL = 1e-6
DEFAULT_ENUM_CAP = 10**7
GAP_BLOCK_BYTES = 256 * 1024  # widest working buffer of a row block of gaps_from_uniform


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
    """All independent K-sets of a matroid: their number ``n_sets`` >= 1
    and, as ``sets``, a (n_sets, K) index array.

    Rows are sorted increasingly within each set and lexicographically
    across sets; the array is immutable.  An index from
    :func:`independent_set_index` knows its count in closed form and
    enumerates its sets when ``sets`` is first read, which neither the
    e_K evaluator nor a column matroid's flats build does (see
    :func:`_chains`).  ``cap`` is the most rows one build may hold: K-sets
    listed, shadow sets, or flats times m of a level (see _acceptor, _flats).
    """

    __slots__ = ("k", "m", "n_sets", "cap", "_sets", "_matroid", "_chains")

    def __init__(self, k: int, m: int, sets, cap: int = DEFAULT_ENUM_CAP):
        arr = np.array(sets, dtype=np.int64, copy=True)
        if not arr.size:
            raise ValueError("an index needs at least one set")
        if arr.ndim != 2 or arr.shape[1] != k:
            raise ValueError(f"sets must be rows of {k} elements, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() >= m:
            raise ValueError(f"set elements must lie in [0, {m})")
        if k > 1 and not np.all(np.diff(arr, axis=1) > 0):
            raise ValueError("each set must list distinct elements in increasing order")
        order = np.lexsort(arr.T[::-1])
        arr = arr[order]
        if len(arr) > 1 and np.any(np.all(arr[1:] == arr[:-1], axis=1)):
            raise ValueError("duplicate sets in index")
        arr.flags.writeable = False
        self._fill(k, m, cap, len(arr), arr)

    @classmethod
    def _lazy(cls, matroid: Matroid, k: int, n_sets: int, cap: int) -> IndepSetIndex:
        """An index of ``n_sets`` sets that ``matroid`` enumerates on first read."""
        return cls.__new__(cls)._fill(k, matroid.m, cap, n_sets, None, matroid)

    def _fill(self, k, m, cap, n_sets, sets, matroid=None) -> IndepSetIndex:
        self.k, self.m, self.cap, self.n_sets = int(k), int(m), int(cap), int(n_sets)
        self._sets, self._matroid = sets, matroid
        self._chains = None  # the evaluator, built on first use: see _chains
        return self

    @property
    def sets(self) -> np.ndarray:
        if self._sets is None:
            self._sets = enumerate_independent_ksets(self._matroid, self.k, self.cap).sets
        return self._sets

    def __repr__(self):
        return f"IndepSetIndex(k={self.k}, m={self.m}, n_sets={self.n_sets})"


def _checked_count(matroid: Matroid, k: int) -> int | None:
    """The closed-form count of independent k-sets, or None where the family
    has none; raises when k is outside [1, rank], never for the count's size."""
    if k < 1 or k > matroid.rank:
        raise ValueError(f"k={k} out of range [1, rank={matroid.rank}]")
    return independent_count(matroid.spec, k)


def independent_set_index(matroid: Matroid, k: int,
                          cap: int = DEFAULT_ENUM_CAP) -> IndepSetIndex:
    """The index of the independent k-sets, as from
    :func:`enumerate_independent_ksets`, but lazy where the count has a
    closed form (:func:`~matroid_sampling.matroids.independent_count`):
    then ``n_sets`` is that count, whatever ``cap`` reads, and the sets are
    enumerated when ``sets`` is first read.  Other families are enumerated now."""
    known = _checked_count(matroid, k)
    if known is None:
        return enumerate_independent_ksets(matroid, k, cap)
    return IndepSetIndex._lazy(matroid, k, known, cap)


def enumerate_independent_ksets(matroid: Matroid, k: int,
                                cap: int = DEFAULT_ENUM_CAP) -> IndepSetIndex:
    """Enumerate { S independent : |S| = k } level by level.

    Level t holds the independent t-sets that leave room for k - t larger
    elements, as increasing rows in lexicographic order.  Level t + 1
    appends to each row every such element above its last and keeps the
    candidates that :meth:`~matroid_sampling.matroids.Matroid.independent_rows`
    accepts; no independent set is lost, since each of its prefixes is
    independent (downward closure).  Candidates reach the batch oracle in
    blocks of at most _BUILD_BLOCK (candidate, element) entries, so
    working memory beyond the levels themselves does not grow with their
    size.  Raises when k is outside [1, rank] or when the count exceeds
    ``cap``; a count known in closed form
    (:func:`~matroid_sampling.matroids.independent_count`) is checked
    before the search starts.  The index keeps ``cap`` for its evaluator's
    build.
    """
    known = _checked_count(matroid, k)
    if known is not None and known > cap:
        raise ValueError(f"enumeration exceeds cap of {cap} sets")
    m = matroid.m
    level = np.empty((1, 0), dtype=np.int64)  # the empty set
    for t in range(k):
        # candidates e leave room for the k - t - 1 elements after them: e <= m - k + t
        first = level[:, -1] + 1 if t else np.zeros(1, dtype=np.int64)
        counts = np.maximum(m - k + t + 1 - first, 0)
        ends = np.cumsum(counts)
        shift = first - ends + counts  # candidate c of parent i appends c + shift[i]
        total, rows = int(counts.sum()), max(1, _BUILD_BLOCK // (t + 1))
        kept, found = [np.empty((0, t + 1), dtype=np.int64)], 0
        for start in range(0, total, rows):
            cand = np.arange(start, min(start + rows, total))
            parent = np.searchsorted(ends, cand, side="right")
            block = np.empty((cand.size, t + 1), dtype=np.int64)
            block[:, :t] = level[parent]
            block[:, t] = cand + shift[parent]
            block = block[matroid.independent_rows(block)]
            found += block.shape[0]
            if t + 1 == k and found > cap:
                raise ValueError(f"enumeration exceeds cap of {cap} sets")
            kept.append(block)
        level = np.concatenate(kept)
        del kept  # no second copy of the K-sets while the index sorts them
    index = IndepSetIndex(k, m, level, cap)
    index._matroid = matroid  # for its evaluator's build (see _chains)
    return index


def as_point(x, m: int) -> np.ndarray:
    """Coerce a Distribution or array-like to a nonnegative length-m vector."""
    v = x.probs if isinstance(x, Distribution) else np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != m:
        raise ValueError(f"point has shape {v.shape}, expected ({m},)")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("point coordinates must be finite and nonnegative")
    return v


def eval_f(idx: IndepSetIndex, x) -> float:
    """Sum over independent K-sets of the product of the set's coordinates,
    taken by the index's evaluator (see :func:`_chains`)."""
    return _chains(idx).evaluate(as_point(x, idx.m))[0]


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
    and expands F(p) - F(u) in powers of w.  Its linear part is
    K! sum_e degree(e) w_e, whose mean-degree component multiplies
    sum(w) = 0 and is dropped analytically rather than left to cancel in
    floating point.  The rest of it, zero when every element has the same
    degree, is summed in doubled precision (see _dot2), and the order >= 2
    remainder numerically.  The computed gap therefore stays accurate
    relative to ||p - u||^2 even for p extremely close to u, which is what
    dividing by the squared norm requires.

    The remainder is summed by the index's evaluator (see :func:`_chains`,
    _Elementary.gaps and _Chains.gaps), which streams the batch through
    row blocks whose widest working buffer holds GAP_BLOCK_BYTES (but at
    least one row), so that memory beyond the (batch, m) inputs does not
    grow with the batch.  Each row's arithmetic and summation order do not
    depend on the blocking, so neither do the results.
    """
    w, norm2 = _centred(idx, pts)
    return _chains(idx).gaps(w), norm2


def _centred(idx: IndepSetIndex, pts) -> tuple[np.ndarray, np.ndarray]:
    """Per row p of a (batch, m) array: (w = m p - 1 projected to zero sum,
    ||p - u||_2^2), as :func:`gaps_from_uniform` and the stability scan's
    screen take them, row by row."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != idx.m:
        raise ValueError(f"points have shape {pts.shape}, expected (batch, {idx.m})")
    m = idx.m
    w = pts * m - 1.0
    w -= w.mean(axis=1, keepdims=True)
    return w, np.einsum("ij,ij->i", w, w) / (m * m)


def hessian_f(idx: IndepSetIndex, x) -> np.ndarray:
    """Exact Hessian of eval_f: zero diagonal (the polynomial is multi-affine),
    entry (e, e') sums the products of the remaining K-2 coordinates over the
    sets containing both e and e'.  Taken by the index's evaluator (see
    :func:`_chains`) and exactly symmetric; at x = 1, the pair counts."""
    return _chains(idx).hessian(as_point(x, idx.m))


class _Level(NamedTuple):
    """The covers F' ⋖ F from one level of nodes to the next, sorted by
    (F, F').  ``diff`` holds their difference sets F \\ F' as padded columns:
    an integer (max |F \\ F'|, covers) array whose column c lists the set
    of cover c, padded with m, an index that reads an appended zero.  When
    the largest set fills at least about half the ground set, ``dense``
    also holds them as 0/1 float rows (covers, m + 1), which the ascent's
    matrix products read faster than a gather; otherwise it is None."""

    src: np.ndarray     # index of F' in the level below, per cover
    diff: np.ndarray
    dense: np.ndarray | None
    sizes: np.ndarray   # |F \\ F'| per cover, as floats
    starts: np.ndarray  # first cover of each F of this level
    counts: np.ndarray  # number of covers of each F of this level


class _Chains:
    """f, its gradient, its Hessian and the gaps F(u) - F(p) summed over
    chains of nodes instead of K-sets: with G(root) = 1 and G(F) = sum over
    covers F' ⋖ F of G(F') x(F \\ F'), the top value G(E) is K! f(x).

    The nodes are the states of the support's minimal acceptor (see
    _acceptor): an ordered K-sequence x_1..x_K of a K-set corresponds to
    exactly one chain root = F_0 ⋖ F_1 ⋖ ... ⋖ F_K = E, with x_i in
    F_i \\ F_{i-1}; on a matroid, the F_i are the flats of the rank-K
    truncation.  Every factor x(F \\ F') is a sum of nonnegative
    coordinates over the stored difference set, never x(F) - x(F'), so
    zero and tiny coordinates lose no digits.  The gradient is the reverse
    (adjoint) sweep plus one scatter of the cover weights per level; it
    reuses the forward sweep that :meth:`evaluate` returns with f.  At x = 1
    the gradient is the degrees and the Hessian the pair counts, sums of
    nonnegative integers, exact while K! n_sets < 2^53.
    """

    __slots__ = ("m", "k", "levels", "slope", "_plan", "_points")

    def __init__(self, m: int, k: int, levels: list[_Level]):
        self.m, self.k, self.levels = m, k, levels
        # m times the degrees (the gradient at 1) less their mean, exact integers: the linear
        # part of m^K G(E) in w = m p - 1, less its multiple of sum(w) = 0, is K!/m w.slope
        degrees = self.gradient(self.evaluate(np.ones(m))[1])
        self.slope = m * degrees - degrees.sum()
        self._plan = None  # the tables of gaps, built on first use: see _gap_plan
        self._points = None  # the nodes' points, listed on first use: see flat_points

    def _sweep(self, x: np.ndarray):
        """(G(E), per level the cover factors x(F \\ F') and the values
        G(F') of the level below)."""
        xe = np.concatenate((x, (0.0,)))
        g = np.ones(1, dtype=xe.dtype)
        sweep = []
        for lv in self.levels:
            if lv.dense is not None:
                d = lv.dense @ xe
            else:
                d = np.add.reduce(xe[lv.diff], axis=0)
            sweep.append((d, g))
            g = np.add.reduceat(g[lv.src] * d, lv.starts)
        return g[0], sweep

    def evaluate(self, x: np.ndarray) -> tuple[float, list]:
        """(f(x), the sweep that :meth:`gradient` differentiates)."""
        top, sweep = self._sweep(x)
        return float(top / factorial(self.k)), sweep

    def _adjoints(self, sweep: list) -> list[np.ndarray]:
        """Per level from the top down, the adjoint d G(E) / d G(F) of the
        upper node F of each cover, from the sweep of :meth:`_sweep`."""
        levels = self.levels[::-1]
        per_cover = [np.ones(levels[0].src.size)]  # the top level has one node
        for upper, lower, (d, g) in zip(levels, levels[1:], reversed(sweep)):
            adjoint = np.bincount(upper.src, per_cover[-1] * d, minlength=g.size)
            per_cover.append(adjoint.repeat(lower.counts))
        return per_cover

    def gradient(self, sweep: list) -> np.ndarray:
        """The gradient of f at the point a sweep was taken at."""
        grad = np.zeros(self.m + 1)
        for lv, (_, g), a in zip(reversed(self.levels), reversed(sweep), self._adjoints(sweep)):
            w = a * g[lv.src]
            if lv.dense is not None:
                grad += w @ lv.dense
            else:
                grad += np.bincount(lv.diff.ravel(), w[None].repeat(lv.diff.shape[0], 0).ravel(),
                                    minlength=self.m + 1)
        return grad[:-1] / factorial(self.k)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """The Hessian of f at x, as (L + L^T) / K!.  A term of the second
        derivative of G(E) reads two covers of a chain; L[a, b] sums those
        whose upper cover F' ⋖ F has a in F \\ F', as the adjoint of F (see
        :meth:`_adjoints`) times d G(F') / d x_b.  These tangents run forward
        in all m unit directions at once, as a trailing axis of the node
        values; a cover factor x(F \\ F') has the cover's membership row as
        tangent.  Every term is nonnegative at nonnegative x, L + L^T is exactly
        symmetric, and its diagonal is exactly zero: no chain reads an element twice."""
        m = self.m
        _, sweep = self._sweep(x)
        lower, dg = np.zeros((m, m)), np.zeros((1, m))
        for lv, (d, g), a in zip(self.levels, sweep, self._adjoints(sweep)[::-1]):
            member = lv.dense
            if member is None:
                member = np.zeros((lv.src.size, m + 1))
                member[np.arange(lv.src.size), lv.diff] = 1.0
            member = member[:, :m]
            lower += member.T @ (a[:, None] * dg[lv.src])
            if lv is self.levels[-1]:  # no level reads the top's tangent
                break
            dg = np.add.reduceat(dg[lv.src] * d[:, None] + g[lv.src, None] * member, lv.starts)
        return (lower + lower.T) / factorial(self.k)

    def _gap_plan(self) -> list[tuple[np.ufunc, list[_Slot]]]:
        """The tables of :meth:`gaps`, built on first use and cached: per
        level, the ufunc that applies w(D) and the level's slots.

        Below the top, each level's nodes are numbered by descending cover
        count, and slot j holds the j-th cover of every node that has more
        than j: nodes 0..n-1 of the level, so that the slots hold exactly
        the level's covers, and irregular levels do no padded work.  The
        next level reads the nodes through that numbering.  The top level
        has one node, and one slot of all its covers.  Where the
        complements [m] \\ D of a level's difference sets are narrower than
        the sets, the slots gather them, and the ufunc is np.subtract,
        since w(D) = -w([m] \\ D) when w sums to zero.  Each slot gathers
        only as many columns as its widest set."""
        if self._plan is None:
            m, plan = self.m, []
            renumber, c0 = np.zeros(1, dtype=np.int64), np.ones(1)  # the root
            for lv in self.levels:
                order = np.argsort(-lv.counts, kind="stable")
                firsts, counts = lv.starts[order], lv.counts[order]
                if lv is self.levels[-1]:
                    covers = [np.arange(lv.src.size)]
                else:
                    covers = [firsts[:np.count_nonzero(counts > j)] + j for j in range(counts[0])]
                table, apply = lv.diff, np.add
                widths = lv.sizes.astype(np.int64)
                if m - widths.min() < table.shape[0]:
                    n, widths = lv.src.size, m - widths
                    outside = np.ones((n, m + 1), dtype=bool)
                    outside[np.arange(n), lv.diff] = False
                    cover, elem = np.nonzero(outside[:, :m])
                    table = np.full((widths.max(), n), m, dtype=np.int64)
                    table[np.arange(cover.size) - (np.cumsum(widths) - widths)[cover], cover] = elem
                    apply = np.subtract
                src = renumber[lv.src]
                plan.append((apply, [_Slot(src[c], table[:widths[c].max(), c], lv.sizes[c, None],
                                           c0[src[c], None]) for c in covers]))
                c0 = np.add.reduceat(c0[src] * lv.sizes, lv.starts)[order]
                renumber = np.empty_like(order)
                renumber[order] = np.arange(order.size)
            self._plan = plan
        return self._plan

    def _row_bytes(self) -> int:
        """Bytes per row of a block of :meth:`gaps`, which takes
        max(1, GAP_BLOCK_BYTES // this) rows per block: 8 times the widest
        of a slot's gathered columns and four columns per cover of a
        level's first slot (the two parts of its terms and of the nodes
        they are added into)."""
        return 8 * max(max(4 * slots[0].src.size, *(s.gather.size for s in slots))
                       for _, slots in self._gap_plan())

    def gaps(self, w: np.ndarray) -> np.ndarray:
        """F(u) - F(p) per row of the centered points w = m p - 1, whose
        rows sum to zero (see :func:`gaps_from_uniform`).

        With x = (1 + w) / m every cover factor is (|D| + w(D)) / m for its
        difference set D, so m^t G(F) for a rank-t node F is a polynomial
        of degree t in w.  Each node carries two parts of it, the linear
        one c_1 and the remainder R of degree >= 2, which follow the covers:
        c_1(F) = sum over F' ⋖ F of |D| c_1(F') + c_0(F') w(D) and
        R(F) = sum of |D| R(F') + (R(F') + c_1(F')) w(D), where c_0, the
        value at u, has no batch axis and the root has c_1 = R = 0.  The
        gap is -m^-K (R(E) + the analytic linear part).

        Below the top, each slot of a level (see :meth:`_gap_plan`) adds
        one cover's terms to every node it reaches, so a node sums its
        covers in cover order, one elementwise add at a time.  The top
        sums its covers with a single-segment np.add.reduceat, whose
        per-element loop is the same at any block width (a sum over
        axis 0 of a one-row block would switch to pairwise summation).
        Each w(D) is a sum of gathered columns, never a matrix product, so
        that no BLAS kernel can pick a different summation order for
        another block width.  Blocks have max(1, GAP_BLOCK_BYTES //
        :meth:`_row_bytes`) rows.
        """
        m = self.m
        *levels, (apply, (top,)) = self._gap_plan()
        rows = max(1, GAP_BLOCK_BYTES // self._row_bytes())
        batch = w.shape[0]
        higher = np.empty(batch)
        for start in range(0, batch, rows):
            block = w[start:start + rows]
            r = block.shape[0]
            # rows last, so that every gather copies contiguous runs; at least
            # two columns, so that no gathered sum is one strided run, which
            # numpy would sum pairwise
            wt = np.zeros((m + 1, max(r, 2)))  # row m: the padding's zero
            wt[:m, :r] = block.T
            parts = np.zeros((2, 1, wt.shape[1]))  # c_1 and R of the root
            for level_apply, slots in levels:
                level = _cover_terms(wt, level_apply, slots[0], parts)  # slot 0 reaches every node
                for s in slots[1:]:
                    level[:, :s.src.size] += _cover_terms(wt, level_apply, s, parts)
                parts = level
            rest = _cover_terms(wt, apply, top, parts)[1]
            higher[start:start + r] = np.add.reduceat(rest, [0], axis=0)[0, :r]
        total = higher + factorial(self.k) / m * _dot2(w, self.slope)
        return 0.0 - float(m) ** (-self.k) * total  # +0.0, not -0.0, where total is 0

    def flat_points(self) -> list[np.ndarray]:
        """Per level t = 1..K-1, the points of its nodes (on a matroid, the
        rank-t flats) as a (points, nodes) array padded with m, listed on
        first use and cached: a node is its first cover's source plus that
        cover's difference set."""
        if self._points is None:
            points, self._points = np.empty((0, 1), dtype=np.int64), []
            for lv in self.levels[:-1]:
                points = np.concatenate((points[:, lv.src[lv.starts]], lv.diff[:, lv.starts]))
                self._points.append(points)
        return self._points

    def screen(self, w: np.ndarray, coefficients) -> tuple[np.ndarray, np.ndarray]:
        """(F(u) - F(p), a bound on its rounding error) per row of the
        centered points w = m p - 1, whose rows sum to zero, from the flat
        masses: F(p) = 1 + sum over levels r < K of c_r sum_U p(U)^K for
        the Möbius coefficients c_r (``coefficients``, c_1 first; see
        :func:`~matroid_sampling.projective.mobius_coefficients`), where
        the flats U of a level all hold |U| points, as on a projective
        geometry.

        With W = w(U), m^K (p(U)^K - u(U)^K) = sum_{j>=1} C(K, j) |U|^(K-j)
        W^j.  Its linear terms add up to zero on each level, since every
        point lies in equally many of its flats, so the gap is
        -m^-K sum_r c_r sum_U poly_U with poly_U = sum_{j>=2} C(K, j)
        |U|^(K-j) W^j, taken by Horner's rule.  The bound is
        64 (K + max |U|) 2^-53 m^-K sum_r |c_r| sum_U |poly_U|, and one sum
        serves both: poly_U = (|U| + W)^K - |U|^K - K |U|^(K-1) W >= 0, as
        |U| + W = m p(U) >= 0, and each Horner factor is a Taylor remainder
        of that power, positive there.

        Rows last, in blocks of max(1, GAP_BLOCK_BYTES // (8 * the most
        points of a level)) rows and at least two columns, so that every
        sum runs one element at a time over the points of a flat, then
        over the flats of a level, in the same order at any block width.
        """
        m, k = self.m, self.k
        flats = self.flat_points()
        scale = float(m) ** (-k)
        slack = 64 * (k + flats[-1].shape[0]) * 2.0**-53 * scale
        rows = max(1, GAP_BLOCK_BYTES // (8 * max(p.shape[1] for p in flats)))
        batch = w.shape[0]
        gaps, bounds = np.empty(batch), np.empty(batch)
        for start in range(0, batch, rows):
            block = w[start:start + rows]
            r = block.shape[0]
            wt = np.zeros((m + 1, max(r, 2)))  # rows last, as in gaps
            wt[:m, :r] = block.T
            total, size = np.zeros((2, wt.shape[1]))
            for c, points in zip(coefficients, flats):
                a = points.shape[0]
                x = wt.take(points[0], axis=0)  # W per flat, one point at a time
                for row in points[1:]:
                    x += wt.take(row, axis=0)
                poly = x + k * a
                for j in range(k - 2, 1, -1):
                    poly *= x
                    poly += comb(k, j) * a ** (k - j)
                poly *= x
                poly *= x
                flat_sum = np.add.reduce(poly, axis=0)  # poly_U >= 0, so also sum |poly_U|
                total += float(c) * flat_sum
                size += float(abs(c)) * flat_sum
            gaps[start:start + r] = 0.0 - scale * total[:r]
            bounds[start:start + r] = slack * size[:r]
        return gaps, bounds


def _dot2(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """w @ c per row, as accurate as if summed in twice the working
    precision: each w_ij c_j is the exact sum of four products of halves
    (see _halves), added with Knuth's error-free TwoSum.  Near u the terms
    of the gap's linear part cancel far below their size."""
    total, error = np.zeros((2, w.shape[0]))
    for j in np.flatnonzero(c):
        (x_hi, x_lo), (c_hi, c_lo) = _halves(w[:, j]), _halves(c[j])
        for p in (x_hi * c_hi, x_hi * c_lo, x_lo * c_hi, x_lo * c_lo):
            prev, total = total, total + p
            z = total - prev
            error += (prev - (total - z)) + (p - z)
    return total + error


def _halves(a):
    """a = hi + lo exactly, each with at most 26 significant bits (Dekker)."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


class _Slot(NamedTuple):
    """One cover of each of n nodes of a level, for :meth:`_Chains.gaps`."""

    src: np.ndarray     # F' of each cover, in the kernel's numbering of the level below
    gather: np.ndarray  # (width, n) columns of w that sum to w(D), or to w([m] \\ D)
    sizes: np.ndarray   # (n, 1) |D|
    c0: np.ndarray      # (n, 1) c_0(F')


def _cover_terms(wt: np.ndarray, apply: np.ufunc, s: _Slot, parts: np.ndarray) -> np.ndarray:
    """The terms |D| c_1(F') + c_0(F') w(D) and |D| R(F') + (R(F') + c_1(F')) w(D)
    of a slot's covers, as a (2, n, columns) array, from the (2, nodes,
    columns) parts of the level below; ``apply`` adds w(D) or subtracts
    the complement's sum."""
    wd = np.add.reduce(wt.take(s.gather, axis=0), axis=0)
    below = parts.take(s.src, axis=1)
    terms = below * s.sizes
    below[1] += below[0]
    below[0] = s.c0
    below *= wd
    return apply(terms, below, out=terms)


@dataclass(frozen=True)
class _Elementary:
    """f = e_K(x), its gradient, its Hessian and the gaps F(u) - F(p) when
    the support holds every K-subset of the ground set (a free truncation).

    The prefix tables e_j(x_0..x_{i-1}), j < K, are exclusive cumulative
    sums of x times the table below, so every entry is a sum of
    nonnegative terms at nonnegative x; the partial derivative
    e_{K-1}(x without x_i) combines them with the same suffix tables, with
    no subtraction.  A point's state is both, from one prefix pass over x
    stacked on x reversed.  At m near 30 numpy's Python-level wrappers cost
    more than the arithmetic, so the passes call ufuncs' methods directly.
    """

    m: int
    k: int

    def _prefix(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """e_j of the coordinates before each position along the last axis
        of x, for j = 0..K-1, one table at a time, so that a caller that
        reads each table once holds no more than two of them."""
        q = np.ones(x.shape)
        yield q
        for _ in range(self.k - 1):
            t = x * q
            q = np.zeros(x.shape)
            np.add.accumulate(t[..., :-1], axis=-1, out=q[..., 1:])
            yield q

    def _state(self, x: np.ndarray) -> list[np.ndarray]:
        """Per j < K, the prefix tables of x (row 0) and of x reversed (row 1)."""
        return list(self._prefix(np.array((x, x[..., ::-1]))))

    def evaluate(self, x: np.ndarray) -> tuple[float, list]:
        """(f(x), the state that :meth:`gradient` differentiates)."""
        state = self._state(x)
        return float(x @ state[-1][0]), state

    def gradient(self, state: list) -> np.ndarray:
        """The gradient of f at the point a state was taken at."""
        return sum(p[0] * s[1, ..., ::-1] for p, s in zip(state, reversed(state)))

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """The Hessian of f at x: entry (a, b) is e_{K-2}(x without x_a, x_b),
        the gradient of e_{K-1} at b in row a of a batch that sets x_a to 0
        there.  One triangle is mirrored, so the result is exactly symmetric
        with a zero diagonal."""
        m = self.m
        if self.k < 2:
            return np.zeros((m, m))
        rows = np.tile(x, (m, 1))
        np.fill_diagonal(rows, 0.0)
        lower = _Elementary(m, self.k - 1)
        hess = np.triu(lower.gradient(lower._state(rows)), 1)
        return hess + hess.T

    def gaps(self, w: np.ndarray) -> np.ndarray:
        """F(u) - F(p) per row of the centered points w = m p - 1, whose
        rows sum to zero: F(p) = K! m^-K sum_j C(m-j, K-j) e_j(w) with
        e_0 = 1 and e_1(w) = 0, in blocks of rows of at most
        GAP_BLOCK_BYTES."""
        m, k = self.m, self.k
        batch = w.shape[0]
        rows = max(1, GAP_BLOCK_BYTES // (8 * m))
        higher = np.zeros(batch)
        for start in range(0, batch, rows):
            block = w[start:start + rows]
            out = higher[start:start + block.shape[0]]
            for j, q in enumerate(islice(self._prefix(block), 1, None), start=2):
                out += comb(m - j, k - j) * (block * q).sum(axis=1)
        return 0.0 - factorial(k) * float(m) ** (-k) * higher  # +0.0 where higher is 0


def _acceptor(idx: IndepSetIndex) -> _Chains:
    """The minimal automaton of the support's ordered K-sequences, as chains.

    Call two t-sets of the shadow (the t-subsets of the K-sets) equivalent
    when they have the same link {T : S + T is a K-set}; the classes are
    the nodes of level t.  Node [S] covers node [S + x] with difference set
    {x : [S + x] is that node}, which does not depend on the representative
    S, so the sweep sums every ordered K-sequence once and G(E) is K! f on
    any support.  On a matroid the nodes are the flats of rank < K, since
    independent sets have equal links iff they have equal closures.

    The levels are built from the top down: the nodes of level t are the
    distinct signatures of its t-sets (see _signatures), which read the
    nodes of level t + 1.  The t-sets are integer keys (see matroids._keys),
    Python integers when m^K would overflow int64, and only they read the
    K-sets: the degrees are the chains' gradient at x = 1.  Raises before
    any signature is computed when the shadow holds more than the index's
    cap of t-sets.
    """
    k, m = idx.k, idx.m
    keys = [_keys(idx.sets, m)]  # lexsorted rows give ascending keys
    for t in range(k - 1, -1, -1):
        keys.append(_subset_keys(keys[-1], t, m))
        shadow = sum(a.size for a in keys[1:])
        if shadow > idx.cap:
            raise ValueError(f"the shadow holds at least {shadow} sets, over the cap of {idx.cap}")
    node = np.zeros(idx.n_sets, dtype=np.int64)  # the one node of level K
    levels = []
    for t, (upper, lower) in enumerate(zip(keys, keys[1:])):
        rows, node = _signatures(lower, upper, node, k - 1 - t, m)
        levels.append(_level(rows))
    return _Chains(m, k, levels[::-1])


def _signatures(keys: np.ndarray, upper: np.ndarray, upper_node: np.ndarray, t: int, m: int):
    """(the signature rows of the nodes of level t, the node of each t-set).

    The signature of a t-set S maps x to the node of S + x, or to -1 when
    S + x is not in the shadow, as when x lies in S.  It is filled from the
    (t+1)-sets of the shadow (``upper``, with nodes ``upper_node``) in
    blocks of _BUILD_BLOCK, each (t+1)-set U setting x = U_c in the row of
    U - U_c for every position c, and deduplicated in blocks of at most
    _BUILD_BLOCK entries, then merged.  Nodes are ordered by the packed
    rows of their -1 entries, ties by first occurrence: on a matroid, by
    the packed membership rows of the rank-t flats.
    """
    sig = np.full((keys.size, m), -1, dtype=np.int32)
    step = max(1, _BUILD_BLOCK // (t + 1))
    for start in range(0, upper.size, step):
        u, node = upper[start:start + step], upper_node[start:start + step]
        for c in range(t + 1):
            low = m ** (t - c)  # the weight of digit c in a (t+1)-key
            x = (u // low % m).astype(np.int64)
            sig[np.searchsorted(keys, u // (low * m) * low + u % low), x] = node  # U - x
    found, nodes = [], []
    step = max(1, _BUILD_BLOCK // m)
    for start in range(0, keys.size, step):
        block = sig[start:start + step]
        first, node = _distinct_rows(block)
        nodes.append(node + sum(f.shape[0] for f in found))
        found.append(block[first])
    rows = np.concatenate(found)  # by first occurrence, since each block's are
    first, node = _distinct_rows(rows)
    order = np.lexsort(np.packbits(rows[first] < 0, axis=1).T[::-1])  # stable
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    return rows[first[order]].astype(np.int64), label[node[np.concatenate(nodes)]]


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the first occurrence of each distinct row of a 2-d array, in
    increasing order; the index into those of every row)."""
    v = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    order = np.argsort(v, kind="stable")  # by bytes: equal rows are adjacent, earliest first
    new = np.concatenate(([True], v[order[1:]] != v[order[:-1]]))
    first = order[new]
    rank = np.argsort(np.argsort(first))  # of each distinct row, by first occurrence
    return np.sort(first), rank[np.cumsum(new) - 1][np.argsort(order)]


def _level(rows: np.ndarray) -> _Level:
    """The covers from the nodes of one level to the next, from the nodes'
    signature rows: node i covers node j when some x has rows[i, x] = j,
    with every such x as the difference set.  Covers are sorted by j, then
    by i (see _Level)."""
    n, m = rows.shape
    node, elem = np.nonzero(rows >= 0)  # elements increase within each node
    key = rows[node, elem] * n + node
    order = np.argsort(key, kind="stable")
    key, elem = key[order], elem[order]
    new = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))  # each cover's first
    lens = np.diff(np.append(new, key.size))
    diff = np.full((lens.max(), new.size), m, dtype=np.int64)
    diff[np.arange(key.size) - np.repeat(new, lens), np.repeat(np.arange(new.size), lens)] = elem
    return _covers(m, key[new] % n, diff, lens, np.bincount(key[new] // n))


def _top_level(member: np.ndarray) -> _Level:
    """The covers of the one top node E, from the membership rows of the
    flats below it: each flat's only cover is E, with its complement as
    difference set, as _level gives them with no sort."""
    n, m = member.shape
    out = ~member
    lens = np.count_nonzero(out, axis=1)
    diff = np.full((lens.max(), n), m, dtype=np.int64)
    elem = np.flatnonzero(out)
    diff.T[np.arange(lens.max()) < lens[:, None]] = np.remainder(elem, m, out=elem)
    return _covers(m, np.arange(n), diff, lens, np.array([n]))


def _covers(m: int, src: np.ndarray, diff: np.ndarray, lens: np.ndarray,
            counts: np.ndarray) -> _Level:
    """The _Level of covers given by source, padded difference sets, set
    sizes and covers per node, with the dense rows where they pay."""
    dense = None
    if m + 1 <= 2 * lens.max():
        dense = np.zeros((src.size, m + 1))
        dense[np.arange(src.size), diff] = 1.0
        dense[:, m] = 0.0  # the padding's column
    return _Level(src, diff, dense, lens.astype(float), np.cumsum(counts) - counts, counts)


def _flats(idx: IndepSetIndex, q: int, columns: np.ndarray) -> _Chains:
    """The chains of a column matroid's rank-K truncation, built from its
    flats with no rank test and no K-set: the levels are those of
    _acceptor, array for array.

    A rank-t flat F keeps the m columns reduced modulo span(F), as F_q
    vectors that vanish on the pivot columns of F's basis: up to one
    scalar common to F's rows, the residual of each coset of span(F) is
    unique.  So y lies in F when its residual is zero, and the covers of F
    are cl(F + x) = F + {y : res(y) is a multiple of res(x)} (see
    _cover_flats).  A child reduces its parent's residuals by its one new
    pivot row, without division, as fields._independent_stacks does.  The
    residuals are kept in the narrowest unsigned dtype that holds q - 1.
    Every rank-(K-1) flat has the one top node E as its only cover, with
    the elements outside it as difference set.  No column is zero, so
    cl(empty) is empty.  _cover_flats refuses a level by its rows, not its K-sets.
    """
    m, k = idx.m, idx.k
    member = np.zeros((1, m), dtype=bool)
    res = columns.astype(np.min_scalar_type(q - 1))[None]
    levels = []
    for t in range(k - 1):
        rows, member, parent, x = _cover_flats(member, res, q, idx.cap)
        levels.append(_level(rows))
        if t + 2 < k:
            res = _reduce(res, parent, x, q)
    levels.append(_top_level(member))
    return _Chains(m, k, levels)


def _cover_flats(member: np.ndarray, res: np.ndarray, q: int,
                 cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(the signature rows of a level of flats, as _signatures gives them;
    the membership rows of the next level's flats; for each of those, the
    flat and the element x outside it whose closure it is) from the flats'
    membership rows and (flats, m, n) residuals.

    The flats are swept in blocks of _BUILD_BLOCK residual entries.  In
    each, the residuals are scaled to lead 1 and sorted by flat, then by
    the bytes of the scaled residual, so that each run of equal nonzero
    residuals is a cover.  The covers are deduplicated across flats by
    their packed membership rows and numbered in the order of those rows,
    as _signatures numbers its nodes.  The sweep stops once its covers'
    packed rows pass ``cap`` bytes, and a next level of flats times m over
    ``cap`` is refused before its residuals or rows are allocated.
    """
    n_flats, m, n = res.shape
    step = max(1, _BUILD_BLOCK // (m * n))
    entry_cover, found, first = [], [], []  # per block
    covers = 0
    for start in range(0, n_flats, step):
        block = member[start:start + step]
        r = res[start:start + step].reshape(-1, n).astype(np.int64)
        at = np.arange(r.shape[0])  # flat at // m of the block, element at % m
        canon = r * _inverse(r[at, (r != 0).argmax(axis=1)], q)[:, None] % q
        key = np.column_stack((at // m, canon)).view(np.dtype((np.void, 8 * n + 8))).ravel()
        order = np.argsort(key, kind="stable")  # within a run, elements increase
        outside = ~block.ravel()[order]
        new = outside.copy()
        new[1:] &= key[order[1:]] != key[order[:-1]]  # the first entry of each cover's run
        run = np.cumsum(new) - 1
        cand = block[order[new] // m]
        cand[run[outside], order[outside] % m] = True
        cover = np.full(at.size, -1, dtype=np.int64)
        cover[order[outside]] = covers + run[outside]
        entry_cover.append(cover)
        found.append(np.packbits(cand, axis=1))
        first.append(start * m + order[new])
        covers += cand.shape[0]
        if covers * found[-1].shape[1] > cap:
            raise ValueError(f"the covers of a level of flats pass the cap of {cap} bytes")
    found, first = np.concatenate(found), np.concatenate(first)
    rows = found.view(np.dtype((np.void, found.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")  # by bytes: the order of the packed rows
    new = np.concatenate(([True], rows[order[1:]] != rows[order[:-1]]))
    if new.sum() * m > cap:
        raise ValueError(f"a level of {new.sum()} flats x {m} elements is over the cap of {cap}")
    child = np.empty_like(order)
    child[order] = np.cumsum(new) - 1
    cover = np.concatenate(entry_cover)
    sig = np.where(cover < 0, -1, child[cover]).reshape(n_flats, m)
    kept = order[new]  # one cover per flat of the next level
    member = np.unpackbits(found[kept], axis=1, count=m).astype(bool)
    return sig, member, first[kept] // m, first[kept] % m


def _reduce(res: np.ndarray, parent: np.ndarray, x: np.ndarray, q: int) -> np.ndarray:
    """The residuals of each flat cl(F + x), from the residuals of F =
    ``parent``: each column y goes to lead * r_y - r_y[col] * r_x, with col
    the pivot column of r_x and lead its entry there, in blocks of
    _BUILD_BLOCK entries.  Entries stay below q**2 < 2**32 before each
    reduction mod q."""
    _, m, n = res.shape
    step = max(1, _BUILD_BLOCK // (m * n))
    children = np.empty((parent.size, m, n), dtype=res.dtype)
    for start in range(0, parent.size, step):
        r = res[parent[start:start + step]].astype(np.int64)
        at = np.arange(r.shape[0])
        pivot = r[at, x[start:start + step]]
        col = (pivot != 0).argmax(axis=1)
        lead = pivot[at, col][:, None, None]
        children[start:start + step] = (lead * r - r[at, :, col][..., None] * pivot[:, None]) % q
    return children


def _inverse(a: np.ndarray, q: int) -> np.ndarray:
    """a^(q-2) mod q per entry of an int64 array over F_q: the inverse of
    each nonzero entry, by square and multiply."""
    out, e = np.ones_like(a), q - 2
    while e:
        if e & 1:
            out = out * a % q
        a, e = a * a % q, e >> 1
    return out


def _chains(idx: IndepSetIndex) -> _Elementary | _Chains:
    """The index's evaluator of f, its gradient, its Hessian and the gaps,
    built on first use and cached on the index: the elementary-symmetric
    one when the support holds every K-subset of the ground set, which the
    count alone decides; otherwise, when the index knows a column matroid,
    the chains of its flats (see _flats), which read no K-set; otherwise
    the chains of the support's minimal acceptor (see _acceptor), which
    read the sets."""
    if idx._chains is None:
        if idx.n_sets == comb(idx.m, idx.k):
            idx._chains = _Elementary(idx.m, idx.k)
        elif idx._matroid is not None and idx._matroid.columns is not None:
            idx._chains = _flats(idx, *idx._matroid.columns)
        else:
            idx._chains = _acceptor(idx)
    return idx._chains


def is_matroid_support(idx: IndepSetIndex) -> bool:
    """Whether the index's K-sets are the independent K-sets of a matroid,
    decided exactly: whether no node F of a level t < K of the acceptor
    (see _acceptor, whose levels a column matroid's flats build gives) has
    a shadow (t+1)-set among its non-extenders N(F), the elements in no
    difference set of F's covers, F's own among them.  That is
    augmentation from t to t + 1 for the t-sets in F, which share a link.
    Per level, the nodes are the trailing axis of one sweep of the chains'
    levels 0..t at x = 1_N(F), in row blocks of GAP_BLOCK_BYTES, which
    keeps only the values > 0.  Every K-subset (e_K) needs no build."""
    chains = _chains(idx)
    if isinstance(chains, _Elementary):
        return True
    for t, lv in enumerate(chains.levels):
        swept, n = chains.levels[:t + 1], int(lv.src.max()) + 1
        width = max(s.diff.size if s.dense is None else 8 * s.src.size for s in swept)
        rows = max(1, GAP_BLOCK_BYTES // width)
        for start in range(0, n, rows):
            mine = (lv.src >= start) & (lv.src < start + rows)
            outside = np.ones((idx.m + 1, min(rows, n - start)), dtype=bool)
            outside[lv.diff[:, mine], lv.src[mine] - start] = False
            outside[idx.m] = False  # the padding
            reach = np.ones((1, outside.shape[1]), dtype=bool)  # the root
            for s in swept:
                hit = outside[s.diff].any(0) if s.dense is None else s.dense @ outside > 0
                reach = np.logical_or.reduceat(reach[s.src] & hit, s.starts)
            if reach.any():
                return False
    return True


def _midpoint_check(idx: IndepSetIndex, x, y) -> tuple[float, float]:
    """Signed midpoint violations (positive = violation) of

    * concavity of the K-th root:  (h(x)+h(y))/2 - h((x+y)/2),
    * superlevel convexity:        min(f(x), f(y)) - f((x+y)/2).
    """
    vx = as_point(x, idx.m)
    vy = as_point(y, idx.m)
    fx, fy, fmid = (eval_f(idx, v) for v in (vx, vy, (vx + vy) / 2.0))
    # h from those values, as eval_h takes it
    hx, hy, hmid = (0.0 if f == 0.0 else float(f ** (1.0 / idx.k)) for f in (fx, fy, fmid))
    return float(0.5 * (hx + hy) - hmid), float(min(fx, fy) - fmid)


@dataclass(frozen=True)
class ConcavityReport:
    trials: int
    seed: int
    max_concavity_violation: float
    max_superlevel_violation: float


def concavity_probe(idx: IndepSetIndex, trials: int = 1000, seed: int = 0) -> ConcavityReport:
    """Check midpoint concavity of the K-th root and midpoint superlevel
    convexity on random pairs of points in [0, 1)^m.  Trial t's pair (x, y)
    is the 2m uniforms of trial t of the ``streams`` contract under ``seed``,
    drawn in blocks whose uniforms fill at most GAP_BLOCK_BYTES.

    What is guaranteed: on a matroid support (:func:`is_matroid_support`
    decides), f is the basis generating polynomial of its rank-K
    truncation, which is Lorentzian (Brändén and Huh), so f^(1/K) is
    concave on the nonnegative orthant and both maxima are <= 0 up to
    rounding (values <= ~1e-9 are the expected floating-point noise).  On
    a support that is not a matroid, such as an arbitrary ``explicit``
    layer, nothing is guaranteed and positive violations are possible.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = idx.m
    worst_h = -np.inf
    worst_s = -np.inf
    rows = max(1, GAP_BLOCK_BYTES // (8 * DOUBLES_PER_BLOCK * blocks_per_trial(2 * m)))
    for block in trial_blocks(lambda first, count: trial_uniforms(seed, first, count, 2 * m),
                              trials, rows):
        for row in block:
            hv, sv = _midpoint_check(idx, row[:m], row[m:])
            worst_h = max(worst_h, hv)
            worst_s = max(worst_s, sv)
    return ConcavityReport(trials, seed, worst_h, worst_s)
