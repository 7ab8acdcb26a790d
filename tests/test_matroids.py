import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroid_sampling import (ExplicitSpec, LinearSpec, ParallelClassesSpec,
                              ProjectiveSpec, UniformSpec, axiom_spot_check,
                              build_matroid, enumerate_independent_ksets, matroids,
                              projective_points, spec_from_json, spec_to_json)
from matroid_sampling.fields import _rank_rows
from matroid_sampling.matroids import independent_count

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


@pytest.mark.parametrize("spec", [ProjectiveSpec(3, 2), ProjectiveSpec(3, 3), UniformSpec(3, 6),
                                  ParallelClassesSpec(3)])
def test_subset_rank_of_messy_input_is_the_rank_of_its_set(spec):
    matroid = build_matroid(spec)
    rng = np.random.default_rng(17)
    for _ in range(20):
        messy = rng.integers(0, matroid.m, size=rng.integers(0, 9))  # unsorted, repeats
        elements = sorted(set(messy.tolist()))
        rank = max(r for r in range(len(elements) + 1)
                   if any(matroid.is_independent(c) for c in combinations(elements, r)))
        assert matroid.subset_rank(messy) == matroid.subset_rank(list(reversed(messy))) == rank


def test_subset_rank_queries_each_sorted_prefix_once():
    fano = build_matroid(ProjectiveSpec(3, 2))
    seen = []
    oracle = fano._oracle
    fano._oracle = lambda s: seen.append(s) or oracle(s)
    # the third point of a line of PG(2, 2) depends on the other two
    line = next(c for c in combinations(range(7), 3) if not oracle(c))
    assert fano.subset_rank([line[2], line[0], line[1], line[2], line[0]]) == 2
    assert seen == [line[:1], line[:2], line]


def test_subset_rank_out_of_range(fano):
    with pytest.raises(ValueError, match="out of range"):
        fano.subset_rank([3, 1, 7])
    with pytest.raises(ValueError, match="out of range"):
        fano.subset_rank([-1, 0])


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


def test_axiom_spot_check_clean_families(fano, parallel2, uniform25):
    for matroid in (fano, parallel2, uniform25):
        assert axiom_spot_check(matroid, trials=150, seed=5) == []


def test_axiom_spot_check_flags_non_matroid():
    # {0,1} and {2,3} violate exchange with any singleton from the other block
    fake = build_matroid(ExplicitSpec(4, 2, ((0, 1), (2, 3))))
    assert axiom_spot_check(fake, trials=300, seed=5) != []


def _subsets(m, max_size):
    return [s for size in range(max_size + 1) for s in combinations(range(m), size)]


def _answers_cold_then_warm(spec, budget, subsets, rnd):
    """Build under a memo budget; answer every subset, then all again shuffled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matroids, "ORACLE_MEMO_BYTES", budget)
        matroid = build_matroid(spec)
    cold = {s: matroid.is_independent(s) for s in subsets}
    warm = list(subsets)
    rnd.shuffle(warm)
    return cold, {s: matroid.is_independent(s) for s in warm}


@st.composite
def linear_specs(draw):
    """2..9 random nonzero columns of length 1..4 over F_2, F_3 or F_5."""
    q = draw(st.sampled_from((2, 3, 5)))
    dim = draw(st.integers(1, 4))
    column = st.tuples(*[st.integers(0, q - 1)] * dim).filter(any)
    return LinearSpec(q, tuple(draw(st.lists(column, min_size=2, max_size=9))))


@PROPERTY
@given(linear_specs(), st.integers(1, 4_000), st.randoms(use_true_random=False))
def test_memo_answers_match_direct_rank(spec, partial_budget, rnd):
    # budget 0 sends every size straight to elimination; a partial budget
    # memoizes only the smallest sizes; the default memoizes all of them
    rank = build_matroid(spec).rank
    subsets = _subsets(len(spec.columns), rank + 1)
    truth = {s: _rank_rows([spec.columns[e] for e in s], spec.q) == len(s) for s in subsets}
    for budget in (0, partial_budget, matroids.ORACLE_MEMO_BYTES):
        cold, warm = _answers_cold_then_warm(spec, budget, subsets, rnd)
        assert cold == truth
        assert warm == truth


@pytest.mark.parametrize("m", range(2, 10))
def test_memo_colex_rank_is_a_bijection(m):
    # Each size's table has C(m, s) slots and indexing past it raises, so if
    # the cold pass asks the oracle once per set (no two sets share a slot)
    # and the warm pass never asks it, the colex rank maps the s-subsets
    # one-to-one onto range(C(m, s)).  Sizes 0 and 1 are not memoized.
    calls = []

    def oracle(s):
        calls.append(s)
        return sum(s) % 3 == 0

    memoized = matroids._memoized(oracle, m, m)
    for size in range(m + 1):
        subsets = list(combinations(range(m), size))
        calls.clear()
        assert [memoized(s) for s in subsets] == [sum(s) % 3 == 0 for s in subsets]
        assert calls == subsets
        calls.clear()
        assert [memoized(s) for s in reversed(subsets)] == [sum(s) % 3 == 0
                                                            for s in reversed(subsets)]
        assert calls == ([] if size >= 2 else subsets[::-1])


def _memo_under_budget(m, max_size, budget):
    calls = []

    def oracle(s):
        calls.append(s)
        return True

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matroids, "ORACLE_MEMO_BYTES", budget)
        memoized = matroids._memoized(oracle, m, max_size)
    return memoized, calls


def test_memo_stays_inside_its_budget():
    # PG(3, 3), rank 4: tables for sizes 2..4 take 780 + 9,880 + 91,390 bytes,
    # and each of the colex rows 0..size-1 holds 40 entries
    row = 40 * matroids._COLEX_ENTRY_BYTES
    memoized, calls = _memo_under_budget(40, 4, row + (780 + row) + (9_880 + row))
    for _ in range(2):
        memoized((0, 1))
        memoized((0, 1, 2))
        memoized((0, 1, 2, 3))
    assert calls == [(0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3)]


def test_memo_ends_at_the_first_size_that_does_not_fit():
    # m = 10: C(10, s) = 45, 120, 210, 252, 210, ... for s = 2, 3, 4, 5, 6.
    # Size 5 misses by one byte, so size 6, which would fit, is not memoized.
    row = 10 * matroids._COLEX_ENTRY_BYTES
    fits = row + (45 + row) + (120 + row) + (210 + row)
    memoized, calls = _memo_under_budget(10, 10, fits + 252 + row - 1)
    for _ in range(2):
        for size in range(2, 7):
            memoized(tuple(range(size)))
    first = [tuple(range(size)) for size in range(2, 7)]
    assert calls == first + [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5)]


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
