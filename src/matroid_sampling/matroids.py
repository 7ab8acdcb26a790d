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

Matroids are immutable after construction and oracle calls are pure, so
instances can be shared freely across threads.  The F_q-rank oracle of
the linear and projective families remembers its answers in a memo of at
most ``ORACLE_MEMO_BYTES`` per matroid; it changes only running time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from math import comb, factorial, prod
from operator import getitem
from typing import Union

import numpy as np

from .fields import PrimeField, _rank_rows, projective_points

ORACLE_MEMO_BYTES = 4 << 20  # per matroid: memo tables plus their colex index rows
_COLEX_ENTRY_BYTES = 40  # one list slot plus one int object, rounded up


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
    """Ground-set size, independence oracle, and rank.

    The ground set is 0..m-1, and ``oracle`` receives a sorted tuple of
    distinct element indices.
    Rank is computed once by greedy extension, which is correct for matroids
    by the greedy property.  For user-supplied explicit layers that are not
    actually matroid layers the behaviour of rank (and of everything downstream)
    is undefined; :func:`axiom_spot_check` offers a non-exhaustive sanity check.

    A matroid is immutable and its oracle is pure, so one instance may be
    shared across threads.  The memo behind the F_q-rank oracle does not
    change that: each write stores the same single byte whichever thread
    makes it, and a lost write only costs a recomputation.
    """

    def __init__(self, m: int, spec: MatroidSpec, oracle, name: str):
        if m < 1:
            raise ValueError(f"ground set must have at least one element, got m={m}")
        self.m = m
        self.spec = spec
        self.name = name
        self._oracle = oracle
        self.rank = self.subset_rank(range(m))

    def _normalize(self, subset) -> tuple:
        s = tuple(sorted(set(map(int, subset))))
        if s and (s[0] < 0 or s[-1] >= self.m):
            raise ValueError(f"element out of range [0, {self.m}) in {list(s)}")
        return s

    def is_independent(self, subset) -> bool:
        return bool(self._oracle(self._normalize(subset)))

    def subset_rank(self, subset) -> int:
        """Rank of a subset: size of a maximal independent subset, greedily."""
        chain: list[int] = []
        for e in self._normalize(subset):
            chain.append(e)
            if not self._oracle(tuple(chain)):
                chain.pop()
        return len(chain)

    def __repr__(self):
        return f"Matroid({self.name}, m={self.m}, rank={self.rank})"


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


def _memoized(oracle, m: int, max_size: int):
    """Wrap a pure oracle on sorted tuples from range(m) in a bounded memo.

    A set x_0 < ... < x_{s-1} is stored at its colex rank sum_i C(x_i, i + 1),
    a bijection onto range(C(m, s)), in one bytearray per size (0 unknown,
    1 dependent, 2 independent) allocated on first use.  Sizes from 2 up get
    a table, and one more row of m colex entries, while the C(m, s) bytes and
    those entries fit in what is left of ``ORACLE_MEMO_BYTES``; the first size
    that does not fit ends the memo.  All other sizes go straight to the oracle.
    """
    counts = [0] * (max_size + 1)
    left = ORACLE_MEMO_BYTES - m * _COLEX_ENTRY_BYTES  # row 0 of the colex tables
    for size in range(2, max_size + 1):
        left -= comb(m, size) + m * _COLEX_ENTRY_BYTES
        if left < 0:
            break
        counts[size] = comb(m, size)
    positions = max((size for size, count in enumerate(counts) if count), default=0)
    colex = [[comb(x, i + 1) for x in range(m)] for i in range(positions)]
    tables = [None] * (max_size + 1)

    def memoized(s: tuple) -> bool:
        size = len(s)
        if size > max_size or not counts[size]:
            return oracle(s)
        table = tables[size]
        if table is None:
            table = tables[size] = bytearray(counts[size])
        key = sum(map(getitem, colex, s))
        known = table[key]
        if known:
            return known == 2
        answer = oracle(s)
        table[key] = 2 if answer else 1
        return answer

    return memoized


def _vector_oracle(vectors, q: int, dim: int):
    def oracle(s: tuple) -> bool:
        if len(s) > dim:
            return False
        if len(s) <= 1:
            return True
        return _rank_rows([vectors[e] for e in s], q) == len(s)

    return _memoized(oracle, len(vectors), dim)


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
        return Matroid(spec.n, spec, lambda s: len(s) <= r,
                       f"uniform(r={spec.r},n={spec.n})")

    if isinstance(spec, LinearSpec):
        field = PrimeField(spec.q)
        cols, dim = _validate_columns(spec.columns, field.p)
        spec = LinearSpec(field.p, cols)
        return Matroid(len(cols), spec, _vector_oracle(cols, field.p, dim),
                       f"linear(q={field.p},m={len(cols)})")

    if isinstance(spec, ProjectiveSpec):
        if spec.n < 1:
            raise ValueError(f"projective matroid needs n >= 1, got {spec.n}")
        field = PrimeField(spec.q)
        pts = projective_points(spec.n, field.p)
        return Matroid(len(pts), spec, _vector_oracle(pts, field.p, spec.n),
                       f"projective(n={spec.n},q={field.p})")

    if isinstance(spec, ParallelClassesSpec):
        mpc = spec.m_per_class
        if mpc < 1:
            raise ValueError(f"parallel-class matroid needs m_per_class >= 1, got {mpc}")

        def oracle(s: tuple) -> bool:
            if len(s) <= 1:
                return True
            if len(s) == 2:
                return (s[0] < mpc) != (s[1] < mpc)
            return False

        return Matroid(2 * mpc, spec, oracle, f"parallel_classes(m={mpc})")

    if isinstance(spec, ExplicitSpec):
        if spec.ground_size < 1:
            raise ValueError("explicit matroid needs ground_size >= 1")
        if not 1 <= spec.k <= spec.ground_size:
            raise ValueError(f"explicit matroid needs 1 <= k <= ground_size, got k={spec.k}")
        norm = set()
        for s in spec.sets:
            t = tuple(sorted(int(e) for e in s))
            if len(set(t)) != spec.k:
                raise ValueError(f"explicit set {s} does not have exactly k={spec.k} distinct elements")
            if t[0] < 0 or t[-1] >= spec.ground_size:
                raise ValueError(f"explicit set {s} has elements out of range")
            norm.add(t)
        sets = tuple(sorted(norm))
        spec = ExplicitSpec(spec.ground_size, spec.k, sets)
        as_sets = [frozenset(t) for t in sets]
        k = spec.k

        def oracle(s: tuple) -> bool:
            if len(s) > k:
                return False
            if not s:
                return True
            ss = set(s)
            return any(ss <= layer for layer in as_sets)

        return Matroid(spec.ground_size, spec, oracle,
                       f"explicit(m={spec.ground_size},k={spec.k})")

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


def axiom_spot_check(matroid: Matroid, trials: int = 300, seed: int = 0) -> list[str]:
    """Randomized, non-exhaustive check of the matroid axioms.

    Samples random independent sets and checks downward closure and the
    exchange property.  Returns a list of human-readable violations (empty
    when none were found).  Absence of violations is evidence, not proof.
    """
    rng = np.random.default_rng(seed)
    m = matroid.m
    violations: list[str] = []
    if not matroid.is_independent(()):
        violations.append("empty set reported dependent")
    indep_pool: list[tuple] = []
    for _ in range(trials):
        size = int(rng.integers(0, max(matroid.rank, 1) + 1))
        s = tuple(sorted(rng.choice(m, size=min(size, m), replace=False).tolist()))
        if not matroid.is_independent(s):
            continue
        indep_pool.append(s)
        if s:
            keep = rng.random(len(s)) < 0.5
            sub = tuple(e for e, k in zip(s, keep) if k)
            if not matroid.is_independent(sub):
                violations.append(f"downward closure fails: {sub} inside independent {s}")
    for _ in range(trials):
        if len(indep_pool) < 2:
            break
        a = indep_pool[int(rng.integers(len(indep_pool)))]
        b = indep_pool[int(rng.integers(len(indep_pool)))]
        if len(a) == len(b):
            continue
        small, big = (a, b) if len(a) < len(b) else (b, a)
        candidates = [e for e in big if e not in small]
        if not any(matroid.is_independent(small + (e,)) for e in candidates):
            violations.append(f"exchange fails between {small} and {big}")
    return violations
