import json

import numpy as np
import pytest

from matroid_sampling import (ExplicitSpec, GroundSet, LinearSpec,
                              ParallelClassesSpec, ProjectiveSpec, UniformSpec,
                              axiom_spot_check, build_matroid,
                              enumerate_independent_ksets, spec_from_json,
                              spec_to_json)


def test_projective_ground_sets():
    pg12 = build_matroid(ProjectiveSpec(2, 2))
    assert set(pg12.ground.labels) == {(1, 0), (0, 1), (1, 1)}
    assert build_matroid(ProjectiveSpec(3, 2)).m == 7  # the Fano plane
    assert build_matroid(ProjectiveSpec(3, 3)).m == 13
    assert build_matroid(ProjectiveSpec(4, 2)).m == 15


def test_fano_pairs_and_lines(fano):
    # simple matroid: every pair of distinct points is independent
    for e in range(7):
        for e2 in range(e + 1, 7):
            assert fano.is_independent((e, e2))
    index = fano.ground.label_index()
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


def test_ground_set_labels_unique():
    with pytest.raises(ValueError, match="unique"):
        GroundSet(2, labels=("a", "a"))


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
