"""Matroids as a ground-set size m plus an independence oracle on 0..m-1.

Concrete families:

* uniform matroids U(r, n),
* linear matroids given by columns over a prime field,
* projective geometries PG(n-1, q), whose element i is the canonical
  projective point ``projective_points(n, q)[i]``,
* the rank-2 "two parallel classes" matroid whose independent pairs are
  exactly the cross pairs between the classes,
* explicit size-k layers, where the user supplies the independent k-sets
  directly and the oracle answers only for subsets of size <= k.

The linear, projective and parallel-class families are all column
matroids over a prime field, built by one function: the parallel classes
are m_per_class copies of the binary column (1, 0), then as many of (0, 1).

Every family decides a batch of same-size sets at once, with
:meth:`Matroid.independent_rows`: one elimination over F_q for the column
matroids, a closed form for the uniform ones, and a lookup of sorted keys
in the listed sets' shadow for explicit layers.  Ranks come from the spec.

Matroids are immutable and oracle calls are pure, so instances can be
shared across threads.  :meth:`Matroid.is_independent` keeps one memo for
every family, at most ``ORACLE_MEMO_BYTES`` per matroid, changing only run
time; on a miss it asks the family's decision: the column matroids' scalar
elimination, or a one-row batch for the others.  Monte Carlo fills it ahead
of its asks, deciding each block's new sets in batches.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from math import comb, factorial, prod
from operator import getitem
from typing import Union

import numpy as np

from .fields import PrimeField, _independent_stacks, _rank_rows, projective_points

ORACLE_MEMO_BYTES = 4 << 20  # per matroid: memo tables plus their colex index rows
_COLEX_ENTRY_BYTES = 48  # one list slot, one int object and one int64 copy, rounded up
_BUILD_BLOCK = 16384  # (set, element) entries per block of enumeration, chain build, batch oracle


@dataclass(frozen=True)
class UniformSpec:
    r: int
    n: int


@dataclass(frozen=True)
class LinearSpec:
    q: int
    columns: tuple  # tuple of equal-length coordinate tuples


@dataclass(frozen=True)
class ProjectiveSpec:
    n: int  # dimension of the ambient vector space; points form PG(n-1, q)
    q: int


@dataclass(frozen=True)
class ParallelClassesSpec:
    m_per_class: int


@dataclass(frozen=True)
class ExplicitSpec:
    ground_size: int
    k: int
    sets: tuple  # tuple of sorted k-tuples

MatroidSpec = Union[UniformSpec, LinearSpec, ProjectiveSpec, ParallelClassesSpec, ExplicitSpec]
_SPEC_TYPES = {"uniform": UniformSpec, "linear": LinearSpec, "projective": ProjectiveSpec,
               "parallel_classes": ParallelClassesSpec, "explicit": ExplicitSpec}


class Matroid:
    """Ground-set size, batch oracle, optional scalar oracle, and rank.

    The ground set is 0..m-1.  ``rows_oracle`` answers a validated (B, t)
    int64 array of strictly increasing rows with one bool each (see
    :meth:`independent_rows`).  ``oracle`` is the decision that
    :meth:`is_independent` asks on a memo miss, about a sorted tuple of
    elements in range: the column matroids pass a scalar elimination, and
    otherwise it asks ``rows_oracle`` about one row.  ``columns``,
    given only by the column matroids, is the pair (q, the read-only
    (m, n) int64 array of the columns over F_q), from which the evaluator
    builds the flats with no oracle call; otherwise None.  ``rank``
    comes from the spec.  It and the pruning of the K-set enumeration (a
    dependent prefix has no independent superset) are all that rely on the
    matroid axioms.  F, its gradient and the gaps F(u) - F(p) are summed
    over whatever support the enumeration returns, so they are right for a
    user-supplied explicit layer that is not a matroid too, though the
    paper's theorems about them are not;
    :func:`~matroid_sampling.genpoly.is_matroid_support` decides exactly
    whether the K-sets are those of a matroid.

    Both entry points refuse elements whose values are not integers, with
    ValueError, rather than truncate 0.5 or parse '1'.

    A matroid is immutable and its oracles are pure, so one instance may be
    shared across threads.  The memo of :meth:`is_independent` and an explicit
    layer's shadow keys, filled on first use, do not change that: every thread
    writes the same values, and a lost write costs a recomputation.  The memo
    is filled one set per miss, or a block at a time by ``_learn``, which
    decides in batches the sets that Monte Carlo is about to ask and writes
    the bytes a miss would.
    """

    def __init__(self, m: int, spec: MatroidSpec, name: str, rank: int, rows_oracle,
                 oracle=None, columns=None):
        if m < 1:
            raise ValueError(f"ground set must have at least one element, got m={m}")
        self.m = m
        self.spec = spec
        self.name = name
        self.rank = rank
        self._rows_oracle = rows_oracle
        self._oracle = oracle or (lambda s: rows_oracle(np.array([s], np.int64))[0])
        self.columns = columns
        # is_independent's memo: per size from 2 while it fits, its answer bytes,
        # None until the size's first use; then the colex rows that index them,
        # as lists and as one int64 array
        left = ORACLE_MEMO_BYTES - m * _COLEX_ENTRY_BYTES  # row 0 of the colex rows
        self._tables, self._colex, self._colex_array = [None, None], [], None
        for size in range(2, rank + 1):
            left -= comb(m, size) + m * _COLEX_ENTRY_BYTES
            if left < 0:
                break
            self._tables.append(None)

    def is_independent(self, subset) -> bool:
        """Independence of the set of ``subset``'s elements, in any order, repeats allowed.

        Sizes 2 up to the rank are memoized while C(m, s) bytes and a colex row
        per size fit in what is left of ``ORACLE_MEMO_BYTES``: a set x_0 < ... <
        x_{s-1} has the byte at its colex rank sum_i C(x_i, i + 1), a bijection
        onto range(C(m, s)), 0 (unknown), 1 (dependent) or 2 (independent).  The
        first size that does not fit ends the memo.  Misses ask ``_oracle``;
        sets that ``_learn`` decided ahead of their ask are warm.
        A tuple or list of 2 to 4 strictly increasing ints in range, as Monte
        Carlo asks them, is unpacked and its colex rank summed in one expression.
        Elements must have integer values (bools, np.int64 and 2.0 count);
        any other, or one out of range, raises ValueError.
        """
        if type(subset) is list or type(subset) is tuple:
            # fast path: a row that is already strictly increasing ints in range,
            # unpacked at sizes 2 to 4, the Monte Carlo asks
            size, tables = len(subset), self._tables
            if size == 4:
                a, b, c, d = subset
                if (type(a) is int and type(b) is int and type(c) is int and type(d) is int
                        and -1 < a < b < c < d < self.m):
                    if len(tables) > 4 and tables[4]:
                        x = self._colex
                        known = tables[4][x[0][a] + x[1][b] + x[2][c] + x[3][d]]
                        if known:
                            return known == 2
                    return self._miss((a, b, c, d))
            elif size == 3:
                a, b, c = subset
                if (type(a) is int and type(b) is int and type(c) is int
                        and -1 < a < b < c < self.m):
                    if len(tables) > 3 and tables[3]:
                        x = self._colex
                        known = tables[3][x[0][a] + x[1][b] + x[2][c]]
                        if known:
                            return known == 2
                    return self._miss((a, b, c))
            elif size == 2:
                a, b = subset
                if type(a) is int and type(b) is int and -1 < a < b < self.m:
                    if len(tables) > 2 and tables[2]:
                        known = tables[2][self._colex[0][a] + self._colex[1][b]]
                        if known:
                            return known == 2
                    return self._miss((a, b))
            else:
                last = -1
                for e in subset:
                    if type(e) is not int or e <= last:
                        break
                    last = e
                else:
                    if last < self.m:
                        table = tables[size] if size < len(tables) else None
                        if table:
                            known = table[sum(map(getitem, self._colex, subset))]
                            if known:
                                return known == 2
                        return self._miss(tuple(subset))
        s = tuple(sorted(set(map(_integer, subset))))
        if s and (s[0] < 0 or s[-1] >= self.m):
            raise ValueError(f"element out of range [0, {self.m}) in {list(s)}")
        return self.is_independent(s)

    def _miss(self, s: tuple) -> bool:
        """Ask ``_oracle`` about a sorted set in range; keep the answer if its size
        is memoized."""
        answer = bool(self._oracle(s))
        size = len(s)
        if 2 <= size < len(self._tables):
            self._table(size)[sum(map(getitem, self._colex, s))] = 2 if answer else 1
        return answer

    def _learn(self, columns) -> None:
        """Decide the sets of a block that the memo does not know yet, in batches.

        ``columns`` holds k integer arrays of one length, column i the i-th
        elements of strictly increasing k-sets in range.  Where size k is
        memoized, the sets' bytes are gathered at their colex ranks, and those
        still 0 are decided by ``_rows_oracle`` in blocks of at most
        ``_BUILD_BLOCK // k**2`` rows, each writing the byte :meth:`_miss`
        would.  Otherwise nothing is done."""
        k = len(columns)
        if not 2 <= k < len(self._tables):
            return
        known = np.frombuffer(self._table(k), np.uint8)
        colex = self._colex_array
        ranks = colex[0].take(columns[0])
        for row, column in zip(colex[1:k], columns[1:]):
            ranks += row.take(column)
        new = np.flatnonzero(known.take(ranks) == 0)
        step = max(1, _BUILD_BLOCK // k**2)
        for lo in range(0, new.size, step):
            pick = new[lo:lo + step]
            rows = np.stack([column[pick] for column in columns], axis=1, dtype=np.int64)
            known[ranks[pick]] = self._rows_oracle(rows) + 1  # 1 dependent, 2 independent

    def _table(self, size: int) -> bytearray:
        """The memo table of a memoized size, building the colex rows (the
        array before the lists, which mark them built), then the table, on
        first use."""
        if self._tables[size] is None:
            if not self._colex:
                colex = [[comb(x, i + 1) for x in range(self.m)]
                         for i in range(len(self._tables) - 1)]
                self._colex_array = np.array(colex, np.int64)
                self._colex = colex
            self._tables[size] = bytearray(comb(self.m, size))
        return self._tables[size]

    def independent_rows(self, rows) -> np.ndarray:
        """Independence of each row of a (B, t) integer array whose rows
        are strictly increasing elements of the ground set, as a length-B
        bool array; row i agrees with ``is_independent(rows[i])``."""
        given = np.asarray(rows)
        try:
            with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
                rows = given.astype(np.int64, copy=False)
            exact = given.dtype.kind in "biu" or np.array_equal(rows, given)
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValueError(f"rows must hold integers, got {given.dtype} entries")
        if rows.ndim != 2:
            raise ValueError(f"rows must form a (B, t) array, got shape {rows.shape}")
        if rows.size and (rows[:, 0].min() < 0 or rows[:, -1].max() >= self.m
                          or np.any(rows[:, 1:] <= rows[:, :-1])):
            raise ValueError(f"rows must list strictly increasing elements of [0, {self.m})")
        return self._rows_oracle(rows)

    def __repr__(self):
        return f"Matroid({self.name}, m={self.m}, rank={self.rank})"


def _integer(e) -> int:
    """``e`` as an int when its value is an integer (an int, a bool, np.int64,
    2.0); otherwise ValueError, where int() would truncate 0.5 or parse '1'."""
    try:
        if int(e) == e:
            return int(e)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"element {e!r} is not an integer")


def _validate_columns(columns, q: int):
    cols = [tuple(int(x) % q for x in col) for col in columns]
    if not cols:
        raise ValueError("linear matroid needs at least one column")
    dim = len(cols[0])
    if dim < 1:
        raise ValueError("column dimension must be >= 1")
    for col in cols:
        if len(col) != dim:
            raise ValueError("all columns must have equal dimension")
        if not any(col):
            raise ValueError(f"column {col} is zero after reduction mod {q}")
    return tuple(cols), dim


def _keys(rows: np.ndarray, m: int) -> np.ndarray:
    """The key sum_i s_i m^(t-1-i) of each row s of a (B, t) array, which sorts
    as the rows do: int64, or Python ints where m^t >= 2^63."""
    keys = np.zeros(rows.shape[0], dtype=np.int64 if m ** rows.shape[1] < 2**63 else object)
    for col in rows.T:
        keys = keys * m + col
    return keys


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a nonempty 1-d array, without np.unique's numpy.ma."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _subset_keys(keys: np.ndarray, t: int, m: int) -> np.ndarray:
    """Sorted distinct keys of the t-subsets of the (t+1)-sets with these keys."""
    lows = [m**j for j in range(t + 1)]  # the weight of each digit dropped
    return _unique(np.concatenate([_unique(keys // (low * m) * low + keys % low) for low in lows]))


def _column_matroid(spec: MatroidSpec, columns, q: int, dim: int, name: str) -> Matroid:
    """The matroid of ``columns`` (nonzero vectors of F_q^dim): a set is
    independent when its columns are linearly independent.  The scalar
    oracle runs one elimination per set; the batch oracle runs all rows of
    a call as one stacked elimination."""
    table = np.array(columns, dtype=np.int64)
    table.flags.writeable = False

    def oracle(s: tuple) -> bool:
        return len(s) <= 1 or len(s) <= dim and _rank_rows([columns[e] for e in s], q) == len(s)

    def rows_oracle(rows: np.ndarray) -> np.ndarray:
        t = rows.shape[1]
        if t <= 1 or t > dim:
            return np.full(rows.shape[0], t <= 1)
        return _independent_stacks(table[rows], q)

    return Matroid(len(columns), spec, name, _rank_rows(columns, q), rows_oracle, oracle,
                   (q, table))


def build_matroid(spec: MatroidSpec) -> Matroid:
    """Instantiate a matroid family from its spec.

    Raises ValueError with a reason when the spec violates its invariants.
    """
    if isinstance(spec, UniformSpec):
        if not 0 <= spec.r <= spec.n:
            raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={spec.r}, n={spec.n}")
        if spec.n < 1:
            raise ValueError("uniform matroid needs n >= 1")
        r = spec.r
        return Matroid(spec.n, spec, f"uniform(r={r},n={spec.n})", r,
                       lambda rows: np.full(rows.shape[0], rows.shape[1] <= r))

    if isinstance(spec, LinearSpec):
        field = PrimeField(spec.q)
        cols, dim = _validate_columns(spec.columns, field.p)
        return _column_matroid(LinearSpec(field.p, cols), cols, field.p, dim,
                               f"linear(q={field.p},m={len(cols)})")

    if isinstance(spec, ProjectiveSpec):
        if spec.n < 1:
            raise ValueError(f"projective matroid needs n >= 1, got {spec.n}")
        field = PrimeField(spec.q)
        return _column_matroid(spec, projective_points(spec.n, field.p), field.p, spec.n,
                               f"projective(n={spec.n},q={field.p})")

    if isinstance(spec, ParallelClassesSpec):
        mpc = spec.m_per_class
        if mpc < 1:
            raise ValueError(f"parallel-class matroid needs m_per_class >= 1, got {mpc}")
        # rank 2: a pair is independent exactly when it crosses the classes
        return _column_matroid(spec, ((1, 0),) * mpc + ((0, 1),) * mpc, 2, 2,
                               f"parallel_classes(m={mpc})")

    if isinstance(spec, ExplicitSpec):
        m, k = spec.ground_size, spec.k
        if m < 1:
            raise ValueError("explicit matroid needs ground_size >= 1")
        if not 1 <= k <= m:
            raise ValueError(f"explicit matroid needs 1 <= k <= ground_size, got k={k}")
        norm = set()
        for s in spec.sets:
            t = tuple(sorted(int(e) for e in s))
            if len(set(t)) != k:
                raise ValueError(f"explicit set {s} does not have exactly k={k} distinct elements")
            if t[0] < 0 or t[-1] >= m:
                raise ValueError(f"explicit set {s} has elements out of range")
            norm.add(t)
        sets = tuple(sorted(norm))  # lexicographic, so their keys ascend
        rank = k if sets else 0

        @functools.cache
        def shadow(t: int) -> np.ndarray:  # sorted keys of the t-subsets of the sets
            return _keys(np.array(sets, np.int64), m) if t == k else _subset_keys(shadow(t + 1), t, m)

        def rows_oracle(rows: np.ndarray) -> np.ndarray:
            t = rows.shape[1]
            if t == 0 or t > rank:
                return np.full(rows.shape[0], t == 0)
            keys, level = _keys(rows, m), shadow(t)
            return level[np.searchsorted(level, keys).clip(max=level.size - 1)] == keys

        return Matroid(m, ExplicitSpec(m, k, sets), f"explicit(m={m},k={k})", rank, rows_oracle)

    raise ValueError(f"unknown matroid spec: {spec!r}")


def independent_count(spec: MatroidSpec, k: int) -> int | None:
    """Closed-form number of independent k-sets, or None when the family has
    none: C(n, k) for U(r, n) with k <= r, and for PG(n-1, q) the ordered
    count prod_{j<k} (q**n - q**j) / (q - 1) (the j-th point avoids the span
    of the first j) divided by k!."""
    if isinstance(spec, UniformSpec):
        return comb(spec.n, k) if k <= spec.r else 0
    if isinstance(spec, ProjectiveSpec):
        q, n = spec.q, spec.n
        return prod((q**n - q**j) // (q - 1) for j in range(k)) // factorial(k)
    return None


def spec_to_json(spec: MatroidSpec) -> dict:
    """Serialize a spec to the JSON object form with a "type" discriminator,
    followed by the spec's fields in declaration order."""
    for kind, cls in _SPEC_TYPES.items():
        if isinstance(spec, cls):
            values = {f.name: getattr(spec, f.name) for f in fields(cls)}
            return {"type": kind, **{key: [list(x) for x in v] if isinstance(v, tuple) else v
                                     for key, v in values.items()}}
    raise ValueError(f"unknown matroid spec: {spec!r}")


def _ints(value, what: str, depth: int = 0):
    """``value`` as an int, or (depth > 0) as nested tuples of ints; else ValueError."""
    if depth:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{what}: expected an array, got {value!r}")
        return tuple(_ints(x, what, depth - 1) for x in value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what}: expected an integer, got {value!r}")
    return int(value)


def spec_from_json(data) -> MatroidSpec:
    """Parse a spec from a JSON object (or a JSON string).  Integer fields must
    be JSON integers; ``columns`` and ``sets`` must be arrays of such arrays."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("matroid spec JSON must be an object with a 'type' field")
    kind = data["type"]
    cls = _SPEC_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown matroid spec type {kind!r}")
    try:
        return cls(*(_ints(data[f.name], f"matroid spec field {f.name!r}",
                           2 if f.type == "tuple" else 0) for f in fields(cls)))
    except KeyError as exc:
        raise ValueError(f"matroid spec JSON missing field {exc}") from exc
