import json
import random
import sys
import threading
from collections import Counter
from itertools import combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matroid_sampling import (ExplicitSpec, LinearSpec, ParallelClassesSpec,
                              ProjectiveSpec, UniformSpec, build_matroid,
                              enumerate_independent_ksets, independent_set_index,
                              is_matroid_support, matroids, projective_points,
                              spec_from_json, spec_to_json)
from matroid_sampling.fields import _rank_rows
from matroid_sampling.matroids import independent_count

from conftest import greedy_rank, linear_matroids

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_projective_ground_sets():
    assert build_matroid(ProjectiveSpec(2, 2)).m == 3
    assert set(projective_points(2, 2)) == {(1, 0), (0, 1), (1, 1)}
    assert build_matroid(ProjectiveSpec(3, 2)).m == 7  # the Fano plane
    assert build_matroid(ProjectiveSpec(3, 3)).m == 13
    assert build_matroid(ProjectiveSpec(4, 2)).m == 15


def test_fano_pairs_and_lines(fano):
    # simple matroid: every pair of distinct points is independent
    for e in range(7):
        for e2 in range(e + 1, 7):
            assert fano.is_independent((e, e2))
    index = {point: i for i, point in enumerate(projective_points(3, 2))}
    line = [index[(1, 0, 0)], index[(0, 1, 0)], index[(1, 1, 0)]]
    assert not fano.is_independent(line)


def test_empty_set_independent(fano, parallel2, uniform25):
    for matroid in (fano, parallel2, uniform25):
        assert matroid.is_independent(())


def test_parallel_classes_structure(parallel2):
    assert parallel2.m == 4
    assert parallel2.rank == 2
    pairs = {s for s in [(0, 2), (0, 3), (1, 2), (1, 3)]}
    for a in range(4):
        for b in range(a + 1, 4):
            assert parallel2.is_independent((a, b)) == ((a, b) in pairs)
    assert not parallel2.is_independent((0, 1, 2))


@pytest.mark.parametrize("mpc", [1, 2, 3, 4])
def test_parallel_classes_are_binary_columns(mpc):
    parallel = build_matroid(ParallelClassesSpec(mpc))
    columns = build_matroid(LinearSpec(2, ((1, 0),) * mpc + ((0, 1),) * mpc))
    assert parallel.m == columns.m == 2 * mpc
    for size in range(4):
        rows = list(combinations(range(2 * mpc), size))
        # rank 2: independent exactly when at most one element, or a pair across the classes
        want = [size <= 1 or (size == 2 and s[0] < mpc <= s[1]) for s in rows]
        assert [parallel.is_independent(s) for s in rows] == want
        assert [columns.is_independent(s) for s in rows] == want
        if rows:
            batch = np.array(rows, dtype=np.int64).reshape(len(rows), size)
            assert parallel.independent_rows(batch).tolist() == want
            assert columns.independent_rows(batch).tolist() == want


def test_ranks():
    assert build_matroid(ProjectiveSpec(3, 2)).rank == 3
    assert build_matroid(UniformSpec(2, 5)).rank == 2
    assert build_matroid(ParallelClassesSpec(3)).rank == 2
    assert build_matroid(LinearSpec(2, ((1, 0), (0, 1), (1, 1)))).rank == 2


def test_explicit_round_trip():
    sets = ((0, 2), (0, 3), (1, 2), (1, 3))
    matroid = build_matroid(ExplicitSpec(4, 2, sets))
    assert matroid.rank == 2
    idx = enumerate_independent_ksets(matroid, 2)
    assert {tuple(s) for s in idx.sets.tolist()} == set(sets)


def test_explicit_oracle_layers():
    matroid = build_matroid(ExplicitSpec(5, 3, ((0, 1, 2), (2, 3, 4))))
    assert matroid.is_independent((0, 1))      # inside a listed set
    assert not matroid.is_independent((0, 4))  # in no listed set
    assert not matroid.is_independent((0, 1, 2, 3))  # beyond the layer
    assert matroid.rank == 3


def test_element_out_of_range(fano):
    with pytest.raises(ValueError, match="out of range"):
        fano.is_independent((0, 9))
    with pytest.raises(ValueError, match="out of range"):
        fano.is_independent((-1,))


def test_independent_rows_validates_rows(fano):
    assert fano.independent_rows(np.empty((0, 3), dtype=np.int64)).shape == (0,)
    assert fano.independent_rows(np.empty((2, 0), dtype=np.int64)).tolist() == [True, True]
    with pytest.raises(ValueError, match="shape"):
        fano.independent_rows([0, 1, 2])
    for bad in ([[0, 7]], [[-1, 2]], [[2, 1]], [[0, 1], [3, 3]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            fano.independent_rows(bad)
    # integral floats mean their integers; any other value is refused, not truncated
    assert fano.independent_rows(np.array([[0.0, 2.0], [1.0, 4.0]])).tolist() == [True, True]
    for bad in (np.array([[0.5, 1.9]]), [[0, 2.5]], [["1", "2"]], [[np.nan, 1]], [[0, np.inf]],
                np.array([[None, 1]])):
        with pytest.raises(ValueError, match="rows must hold integers"):
            fano.independent_rows(bad)


def test_is_independent_sees_each_input_as_its_sorted_set(monkeypatch):
    monkeypatch.setattr(matroids, "ORACLE_MEMO_BYTES", 0)  # every ask reaches the oracle
    fano = build_matroid(ProjectiveSpec(3, 2))
    seen = []
    oracle = fano._oracle
    fano._oracle = lambda s: seen.append(s) or oracle(s)
    line = next(c for c in combinations(range(7), 3) if not oracle(c))
    inputs = [list(line), line, [line[2], line[0], line[1]], [*line, line[1]],
              np.array(line), [np.int64(e) for e in line], [float(e) for e in line],
              (e for e in line), [0, 1], [0, 0, 1], [True, 2], [2, 2], (), []]
    answers = [fano.is_independent(x) for x in inputs]
    assert answers == [False] * 8 + [True] * 6
    assert seen == [line] * 8 + [(0, 1), (0, 1), (1, 2), (2,), (), ()]
    assert all(type(e) is int for s in seen for e in s)
    for bad in ([0, 7], (3, 9), [-1, 2], [2, -1], [5, 5, 8]):
        with pytest.raises(ValueError, match="out of range"):
            fano.is_independent(bad)
    # an element whose value is not an integer is refused, not truncated or parsed
    for bad in ([0.5, 1.9], ["1", "2"], (0, 2.5), [np.float64(1.5), 3], [None, 1],
                [float("nan"), 1], (0, 1, float("inf")), [b"1", 2]):
        with pytest.raises(ValueError, match="is not an integer"):
            fano.is_independent(bad)
    assert len(seen) == 14


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        build_matroid(UniformSpec(3, 2))
    with pytest.raises(ValueError):
        build_matroid(ProjectiveSpec(2, 4))
    with pytest.raises(ValueError):
        build_matroid(LinearSpec(3, ((0, 0), (1, 0))))
    with pytest.raises(ValueError):
        build_matroid(ParallelClassesSpec(0))
    with pytest.raises(ValueError):
        build_matroid(ExplicitSpec(4, 2, ((0, 0),)))
    with pytest.raises(ValueError):
        build_matroid(ExplicitSpec(4, 2, ((0, 5),)))


def test_spec_json_round_trip():
    specs = [
        UniformSpec(2, 5),
        LinearSpec(3, ((1, 0), (0, 1), (1, 2))),
        ProjectiveSpec(3, 2),
        ParallelClassesSpec(2),
        ExplicitSpec(4, 2, ((0, 2), (0, 3), (1, 2), (1, 3))),
    ]
    for spec in specs:
        data = spec_to_json(spec)
        assert spec_from_json(json.dumps(data)) == spec
        assert spec_from_json(data) == spec


def test_spec_json_errors():
    with pytest.raises(ValueError):
        spec_from_json({"type": "nonsense"})
    with pytest.raises(ValueError):
        spec_from_json({"no_type": 1})
    with pytest.raises(ValueError):
        spec_from_json({"type": "uniform", "r": 2})


def _random_independent_sets(matroid, rng, count):
    found = []
    while len(found) < count:
        size = int(rng.integers(0, matroid.rank + 1))
        s = sorted(rng.choice(matroid.m, size=size, replace=False).tolist())
        if matroid.is_independent(s):
            found.append(tuple(s))
    return found


def test_downward_closure_property():
    rng = np.random.default_rng(21)
    matroids = [
        build_matroid(ProjectiveSpec(3, 2)),
        build_matroid(ProjectiveSpec(3, 3)),
        build_matroid(UniformSpec(3, 8)),
        build_matroid(ParallelClassesSpec(3)),
        build_matroid(LinearSpec(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)))),
    ]
    for matroid in matroids:
        for s in _random_independent_sets(matroid, rng, 200):
            keep = rng.random(len(s)) < 0.5
            sub = tuple(e for e, k in zip(s, keep) if k)
            assert matroid.is_independent(sub)


def test_exchange_property_spot_check():
    rng = np.random.default_rng(22)
    matroids = [
        build_matroid(ProjectiveSpec(3, 2)),
        build_matroid(UniformSpec(3, 6)),
        build_matroid(ParallelClassesSpec(2)),
    ]
    for matroid in matroids:
        pool = _random_independent_sets(matroid, rng, 80)
        for a in pool:
            for b in pool:
                if len(a) >= len(b):
                    continue
                assert any(matroid.is_independent(a + (e,)) for e in b if e not in a)


def test_is_matroid_support_clean_families(fano, parallel2, uniform25):
    for matroid in (fano, parallel2, uniform25, build_matroid(ProjectiveSpec(4, 2))):
        for k in range(1, matroid.rank + 1):
            assert is_matroid_support(independent_set_index(matroid, k))
    # U(2,5) lists every pair: e_K decides it from the count, with no enumeration
    idx = independent_set_index(uniform25, 2)
    assert is_matroid_support(idx) and idx._sets is None


def test_is_matroid_support_flags_non_matroid():
    # {0,1} and {2,3} violate exchange with any singleton from the other block
    fake = build_matroid(ExplicitSpec(4, 2, ((0, 1), (2, 3))))
    assert not is_matroid_support(enumerate_independent_ksets(fake, 2))


def _subsets(m, max_size):
    return [s for size in range(max_size + 1) for s in combinations(range(m), size)]


def _counted(spec, budget, decide=None):
    """The matroid of ``spec`` built under a memo budget, with its decision
    (or ``decide`` in its place) wrapped to count the asks that reach it, per set."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matroids, "ORACLE_MEMO_BYTES", budget)
        matroid = build_matroid(spec)
    asks, oracle = Counter(), decide or matroid._oracle
    matroid._oracle = lambda s: asks.update([s]) or oracle(s)
    return matroid, asks


@st.composite
def linear_specs(draw):
    """2..9 random nonzero columns of length 1..4 over F_2, F_3 or F_5."""
    q = draw(st.sampled_from((2, 3, 5)))
    dim = draw(st.integers(1, 4))
    column = st.tuples(*[st.integers(0, q - 1)] * dim).filter(any)
    return LinearSpec(q, tuple(draw(st.lists(column, min_size=2, max_size=9))))


@st.composite
def explicit_specs(draw):
    """A layer of 0..8 random k-sets of 1..9 points, unsorted and with repeats."""
    m = draw(st.integers(1, 9))
    k = draw(st.integers(1, m))
    listed = st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
    return ExplicitSpec(m, k, tuple(map(tuple, draw(st.lists(listed, max_size=8)))))


@settings(PROPERTY, max_examples=120)  # some 40 linear specs, as when it drew them alone
@given(st.one_of(linear_specs(), explicit_specs(),
                 st.integers(1, 9).flatmap(lambda n: st.builds(UniformSpec, st.integers(0, n),
                                                               st.just(n)))),
       st.integers(1, 4_000), st.randoms(use_true_random=False))
def test_memo_answers_match_direct_rank(spec, partial_budget, rnd):
    # budget 0 sends every size straight to the oracle; a partial budget
    # memoizes only the smallest sizes; the default memoizes all of them
    matroid = build_matroid(spec)
    subsets = _subsets(matroid.m, matroid.rank + 1)
    truth = {s: bool(matroid.independent_rows(np.array([s], np.int64).reshape(1, len(s)))[0])
             for s in subsets}
    if isinstance(spec, LinearSpec):
        assert truth == {s: _rank_rows([spec.columns[e] for e in s], spec.q) == len(s)
                         for s in subsets}
    for budget in (0, partial_budget, matroids.ORACLE_MEMO_BYTES):
        matroid, asks = _counted(spec, budget)
        warm = list(subsets)
        rnd.shuffle(warm)
        assert {s: matroid.is_independent(s) for s in subsets} == truth
        assert {s: matroid.is_independent(s) for s in warm} == truth
        # a set of a memoized size reaches the oracle once, any other on every ask;
        # the memoized sizes run from 2 up, all of them up to the rank at the default
        memoized = sorted({len(s) for s in subsets if asks[s] == 1})
        assert asks == Counter({s: 1 if len(s) in memoized else 2 for s in subsets})
        assert memoized == list(range(2, 2 + len(memoized)))
        if budget == 0:
            assert memoized == []
        if budget == matroids.ORACLE_MEMO_BYTES:
            assert memoized == list(range(2, matroid.rank + 1))


@pytest.mark.parametrize("m", range(2, 10))
def test_memo_colex_rank_is_a_bijection(m):
    # Each size's table has C(m, s) slots and indexing past it raises, so if
    # the cold pass asks the oracle once per set (no two sets share a slot)
    # and the warm pass never asks it, the colex rank maps the s-subsets
    # one-to-one onto range(C(m, s)).  Sizes 0 and 1 are not memoized.
    # U(m, m) memoizes every size from 2 to m; its decision is replaced.
    matroid, asks = _counted(UniformSpec(m, m), matroids.ORACLE_MEMO_BYTES,
                             lambda s: sum(s) % 3 == 0)
    for size in range(m + 1):
        subsets = list(combinations(range(m), size))
        asks.clear()
        assert [matroid.is_independent(s) for s in subsets] == [sum(s) % 3 == 0
                                                                for s in subsets]
        assert list(asks.elements()) == subsets
        asks.clear()
        assert [matroid.is_independent(s) for s in reversed(subsets)] == [
            sum(s) % 3 == 0 for s in reversed(subsets)]
        assert list(asks.elements()) == ([] if size >= 2 else subsets[::-1])


def test_warm_asks_read_the_sorted_sets_byte_in_every_form():
    # PG(4,2): m = 31, rank 5, so the memo holds sizes 2 to 5, whose sets are
    # read unpacked (sizes 2 to 4) or by the loop (5).  Each size answers as
    # with no memo, and once a set is warm no form of it reaches the oracle.
    spec = ProjectiveSpec(5, 2)
    cold, _ = _counted(spec, 0)
    warm, asks = _counted(spec, matroids.ORACLE_MEMO_BYTES)
    rng = random.Random(31)
    for size in range(2, 6):
        sets = sorted({tuple(sorted(rng.sample(range(31), size))) for _ in range(300)}
                      | {tuple(range(size)), tuple(range(31 - size, 31))})
        want = [cold.is_independent(s) for s in sets]
        assert (False in want) == (size > 2)  # PG(4,2) has no parallel pair
        assert [warm.is_independent(s) for s in sets] == want
        assert asks == Counter(sets)
        asks.clear()
        for s, answer in zip(sets, want):
            shuffled = rng.sample(s, size)
            forms = [s, list(s), [np.int64(e) for e in s], [float(e) for e in s], shuffled,
                     tuple(shuffled), [*s, s[-1]], (s[0], *s), (e for e in s),
                     [bool(e) if e < 2 else e for e in s], np.array(s)]
            assert [warm.is_independent(x) for x in forms] == [answer] * len(forms)
        assert not asks
        # as many elements as the size, one repeated: the smaller set's answer
        assert [warm.is_independent((s[0], *s[:-1])) for s in sets] == [
            cold.is_independent(s[:-1]) for s in sets]
        for bad in [(-1, *range(1, size)), (*range(size - 1), 31), tuple(range(32 - size, 32)),
                    [*range(1, size), -1], [*range(size - 1), 40], (-2, -1, *range(size - 2))]:
            with pytest.raises(ValueError, match="out of range"):
                warm.is_independent(bad)
        asks.clear()


def _asks_twice(spec, budget, sets):
    """The sets that reach the oracle when each of ``sets`` is asked twice."""
    matroid, asks = _counted(spec, budget)
    for _ in range(2):
        for s in sets:
            matroid.is_independent(s)
    return [s for s in sets for _ in range(asks[s])]


@settings(PROPERTY, max_examples=80)  # about a quarter have rank 1 and no memo
@given(linear_matroids(max_dim=4, max_size=9), st.data())
def test_learn_writes_the_bytes_a_miss_would(matroid, data):
    # per memoized size, _learn over a random block of sets, given as int64 or
    # uint8 columns, writes each set's byte as independent_rows decides it and
    # no other; over every set, the table a miss per set fills, byte for byte
    spec = matroid.spec
    for size in range(2, len(matroid._tables)):
        subsets = list(combinations(range(matroid.m), size))
        block = data.draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
        rows = np.array(sorted(block), data.draw(st.sampled_from((np.int64, np.uint8))))
        learned, asks = _counted(spec, matroids.ORACLE_MEMO_BYTES)
        learned._learn(rows.T)
        want = matroid.independent_rows(rows)
        table = np.frombuffer(learned._tables[size], np.uint8)
        colex = [sum(comb(x, i + 1) for i, x in enumerate(s)) for s in sorted(block)]
        assert np.array_equal(table[colex], np.where(want, 2, 1))
        assert np.count_nonzero(table) == len(block)
        learned._learn(np.array(subsets).T)
        missed, _ = _counted(spec, matroids.ORACLE_MEMO_BYTES)
        for s in subsets:
            missed.is_independent(s)
        assert learned._tables[size] == missed._tables[size]
        assert not asks


def test_memo_stays_inside_its_budget():
    # PG(3, 3), rank 4: tables for sizes 2..4 take 780 + 9,880 + 91,390 bytes,
    # and each of the colex rows 0..size-1 holds 40 entries
    row = 40 * matroids._COLEX_ENTRY_BYTES
    sets = [(0, 1), (0, 1, 2), (0, 1, 2, 3)]
    asked = _asks_twice(ProjectiveSpec(4, 3), row + (780 + row) + (9_880 + row), sets)
    assert asked == [(0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3)]


def test_memo_ends_at_the_first_size_that_does_not_fit():
    # m = 10: C(10, s) = 45, 120, 210, 252, 210, ... for s = 2, 3, 4, 5, 6.
    # Size 5 misses by one byte, so size 6, which would fit, is not memoized.
    row = 10 * matroids._COLEX_ENTRY_BYTES
    fits = row + (45 + row) + (120 + row) + (210 + row)
    sets = [tuple(range(size)) for size in range(2, 7)]
    asked = _asks_twice(UniformSpec(10, 10), fits + 252 + row - 1, sets)
    assert asked == sets[:3] + [sets[3]] * 2 + [sets[4]] * 2


def test_memo_shared_across_threads():
    # four threads fill one fresh matroid's memo at once, switching every
    # microsecond, and each reads every answer right; twenty fresh matroids,
    # so that the first misses of each size race many times
    spec = ProjectiveSpec(4, 2)
    subsets = _subsets(15, 5)
    truth = build_matroid(spec)
    want = [bool(truth.independent_rows(np.array([s], np.int64).reshape(1, len(s)))[0])
            for s in subsets]
    orders = [random.Random(seed).sample(range(len(subsets)), len(subsets)) for seed in range(4)]

    def ask(matroid, start, order, got):
        start.wait(timeout=60)
        got.update((i, matroid.is_independent(subsets[i])) for i in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            matroid, start = build_matroid(spec), threading.Barrier(len(orders))
            answers = [{} for _ in orders]
            threads = [threading.Thread(target=ask, args=(matroid, start, order, got))
                       for order, got in zip(orders, answers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all([got[i] for i in range(len(subsets))] == want for got in answers)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("spec,max_k", [(UniformSpec(3, 7), 3), (ProjectiveSpec(3, 2), 3),
                                        (ProjectiveSpec(3, 3), 3), (ProjectiveSpec(4, 2), 4)])
def test_independent_count_matches_enumeration(spec, max_k):
    matroid = build_matroid(spec)
    for k in range(1, max_k + 1):
        assert independent_count(spec, k) == enumerate_independent_ksets(matroid, k).n_sets
    assert independent_count(spec, matroid.rank + 1) == 0


def test_independent_count_is_none_without_closed_form():
    assert independent_count(ParallelClassesSpec(3), 2) is None
    assert independent_count(ExplicitSpec(3, 2, ((0, 1),)), 2) is None
    assert independent_count(LinearSpec(2, ((1, 0), (0, 1))), 2) is None


def _in_layer(spec, s) -> bool:
    """Brute force for an explicit layer: the empty set, or a set inside some listed set."""
    return not s or any(set(s) <= set(listed) for listed in spec.sets)


def _layer_rows(spec, t, rng) -> list[tuple]:
    """Every t-subset of the ground set when there are at most 2,000 of
    them, else the t-subsets of the first listed sets and random t-subsets."""
    m = spec.ground_size
    if comb(m, t) <= 2_000:
        return list(combinations(range(m), t))
    inside = [c for s in spec.sets[:3] for c in islice(combinations(sorted(s), t), 300)]
    outside = [tuple(sorted(rng.choice(m, t, replace=False).tolist())) for _ in range(300)]
    return sorted(set(inside + outside))


# 64^11 = 2^66: the keys of the 11-sets, and the shadow built from them, are Python ints
_WIDE_LAYER = ExplicitSpec(64, 11, tuple(tuple(range(start, 64, 5))[:11] for start in range(5))
                           + ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63),))


@PROPERTY
@given(explicit_specs())
@example(ExplicitSpec(5, 3, ()))
@example(ExplicitSpec(4, 2, ((0, 1), (2, 3))))
@example(_WIDE_LAYER)
def test_explicit_oracle_matches_brute_force(spec):
    matroid = build_matroid(spec)
    rng = np.random.default_rng(spec.ground_size)
    for t in range(spec.k + 2):
        subsets = _layer_rows(spec, t, rng)
        want = [_in_layer(spec, s) for s in subsets]
        rows = np.array(subsets, dtype=np.int64).reshape(len(subsets), t)
        assert matroid.independent_rows(rows).tolist() == want
        assert [matroid.is_independent(s) for s in subsets] == want


def test_wide_layer_keys_overflow_int64():
    assert matroids._keys(np.zeros((1, 11), dtype=np.int64), 64).dtype == object
    assert matroids._keys(np.zeros((1, 10), dtype=np.int64), 64).dtype == np.int64
    matroid = build_matroid(_WIDE_LAYER)
    assert matroid.rank == 11
    assert enumerate_independent_ksets(matroid, 11).sets.tolist() == sorted(
        map(list, _WIDE_LAYER.sets))


def test_explicit_layer_with_no_sets():
    matroid = build_matroid(ExplicitSpec(5, 2, ()))
    assert matroid.rank == greedy_rank(matroid, range(5)) == 0
    assert matroid.is_independent(())
    for t in range(1, 6):
        subsets = list(combinations(range(5), t))
        assert not any(matroid.is_independent(s) for s in subsets)
        assert not matroid.independent_rows(np.array(subsets, dtype=np.int64)).any()
    with pytest.raises(ValueError, match="out of range"):
        enumerate_independent_ksets(matroid, 1)


@st.composite
def linear_specs_with_parallels(draw):
    """A linear spec whose columns repeat some of its columns, and some of
    their nonzero multiples, in a random order."""
    spec = draw(linear_specs())
    q, columns = spec.q, list(spec.columns)
    columns += draw(st.lists(st.sampled_from(columns), max_size=3))
    for col in draw(st.lists(st.sampled_from(columns), max_size=3)):
        c = draw(st.integers(1, q - 1))
        columns.append(tuple(c * x % q for x in col))
    return LinearSpec(q, tuple(draw(st.permutations(columns))))


@PROPERTY
@given(st.one_of(linear_specs_with_parallels(), explicit_specs()))
@example(LinearSpec(2, ((1, 0, 0), (1, 0, 0), (0, 1, 0))))  # a repeated column
@example(LinearSpec(3, ((1, 2), (2, 1), (0, 1))))  # (2, 1) = 2 (1, 2): parallel columns
@example(ExplicitSpec(6, 3, ((0, 4, 5), (1, 2, 3))))  # not a matroid
@example(ExplicitSpec(5, 3, ()))
@example(UniformSpec(0, 3))
@example(UniformSpec(4, 4))
@example(ProjectiveSpec(1, 3))
@example(ProjectiveSpec(4, 3))
@example(ParallelClassesSpec(3))
def test_rank_from_the_spec_is_the_greedy_rank(spec):
    matroid = build_matroid(spec)
    assert matroid.rank == greedy_rank(matroid, range(matroid.m))
