"""The ascent's evaluators: f and its gradient summed over the chains of the
support's minimal acceptor, or as the elementary symmetric polynomial e_K
on free truncations.

The acceptor is checked against brute force on random supports, most of
them not matroids: no two nodes of a level share a link, and f, the
gradient and the gaps match exact rational sums over the K-sets, and at
x = 1 the Hessian is exactly the pair counts and the gradient the
degrees, against a scan of the K-sets.  On
random small linear matroids (loops and parallel elements included) its
nodes must be the flats in packed-membership order and its sums match
the exact K-set sums; on projective geometries it must give the closed
forms (flat counts per rank, flat sizes, the optimum at u), and the float
K-set sums on the benchmark instances.  Its integer keys must not
overflow on wide supports, its shadow is capped before anything is
allocated, and its build memory is bounded.  The e_K evaluator is checked
against exact rational sums over all K-subsets, and the ascent on a
uniform matroid must use it and never build chains.
"""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (CountingMatroid, add_at_gradient, centered, kset_f, kset_gradient,
                      kset_hessian, linear_matroids, supports, with_loops)
from matroid_sampling import (AscentConfig, Distribution, ExplicitSpec, IndepSetIndex, LinearSpec,
                              ParallelClassesSpec, PGParams, ProjectiveSpec, UniformSpec,
                              build_matroid, enumerate_independent_ksets, eval_F, eval_f,
                              gaps_from_uniform, genpoly, hessian_f, independent_set_index,
                              maximize_F, projective_points, uniform_optimum)
from matroid_sampling.genpoly import (_acceptor, _chains, _Chains, _Elementary, _flats, _level,
                                      _top_level)
from matroid_sampling.matroids import independent_count

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def weights(draw, m):
    """A point w / sum(w) with small integer weights, often with zeros, as Fractions."""
    low = draw(st.sampled_from((0, 1)))
    w = draw(st.lists(st.integers(low, 9), min_size=m, max_size=m).filter(any))
    return [Fraction(x, sum(w)) for x in w]


def assert_matches_kset_sums(evaluator, sets, p):
    f, state = evaluator.evaluate(np.array([float(x) for x in p]))
    f_exact = kset_f(sets, p)
    assert abs(Fraction(f) - f_exact) <= Fraction(1e-12) * f_exact
    # every component is a sum of nonnegative terms: a relative bound per entry
    for got, want in zip(evaluator.gradient(state), kset_gradient(sets, p), strict=True):
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * want


def node_links(chains):
    """Per level t = 0..K, the link of each node, read off the automaton: the
    sets T completing it, collected along every path to the top."""
    links = [[{frozenset()}]]
    for lv in reversed(chains.levels):  # from the top down
        above, level = links[0], []
        for i in range(lv.src.max() + 1):
            link = set()
            for c in np.flatnonzero(lv.src == i):
                dst = np.searchsorted(lv.starts, c, side="right") - 1
                for x in lv.diff[:int(lv.sizes[c]), c].tolist():
                    link |= {t | {x} for t in above[dst]}
            level.append(link)
        links.insert(0, level)
    return links


@PROPERTY
@given(st.data())
def test_chains_match_exact_kset_sums(data):
    matroid = data.draw(linear_matroids(fields=(2, 3, 5), max_dim=4, min_size=1, max_size=8))
    k = data.draw(st.integers(1, matroid.rank))
    sets, m, _ = with_loops(data, matroid, k)
    chains = _acceptor(IndepSetIndex(k, m, sets))
    for _ in range(data.draw(st.integers(1, 3))):
        p = data.draw(weights(m))
        assert_matches_kset_sums(chains, sets, p)


@PROPERTY
@given(st.data())
def test_elementary_matches_exact_subset_sums(data):
    m = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, m))
    assert_matches_kset_sums(_Elementary(m, k), list(combinations(range(m), k)),
                             data.draw(weights(m)))


@PROPERTY
@given(st.data())
def test_acceptor_nodes_are_the_flats(data):
    """Level t of a matroid's acceptor holds its rank-t flats, each the
    complement of the union of its covers' difference sets, in the order of
    their packed membership rows; the flats come from brute-force closure."""
    matroid = data.draw(linear_matroids(fields=(2, 3, 5), max_dim=4, min_size=1, max_size=8))
    k = data.draw(st.integers(1, matroid.rank))
    sets, m, place = with_loops(data, matroid, k)
    chains = _acceptor(IndepSetIndex(k, m, sets))
    old = {e: i for i, e in enumerate(place)}

    def independent(s):
        return all(e in old for e in s) and matroid.is_independent(sorted(old[e] for e in s))

    for t, lv in enumerate(chains.levels):
        flats = {tuple(y in s or not independent(s + (y,)) for y in range(m))
                 for s in combinations(range(m), t) if independent(s)}
        nodes = []
        for i in range(lv.src.max() + 1):
            outside = lv.diff[:, lv.src == i].ravel()
            nodes.append(tuple(y not in outside for y in range(m)))
        # packed rows compare bit by bit from element 0, a member above a non-member
        assert nodes == sorted(flats)


@PROPERTY
@given(supports())
def test_acceptor_is_minimal_on_any_support(idx):
    """Read off the automaton, the links of each level's nodes are distinct,
    and they are exactly the links {T : S + T is a K-set} of the level's
    t-subsets of the K-sets (brute force)."""
    chains = _acceptor(idx)
    sets = {frozenset(s) for s in idx.sets.tolist()}
    for t, level in enumerate(node_links(chains)):
        assert len(set(map(frozenset, level))) == len(level)
        shadow = {frozenset(s) for u in sets for s in combinations(sorted(u), t)}
        want = {frozenset(u - s for u in sets if s <= u) for s in shadow}
        assert set(map(frozenset, level)) == want


@PROPERTY
@given(st.data())
def test_acceptor_matches_exact_sums_on_any_support(data):
    """f, the gradient and the gaps on random supports, most of them not
    the K-sets of a matroid, against exact rational K-set sums."""
    idx = data.draw(supports())
    k, m, sets = idx.k, idx.m, idx.sets.tolist()
    points = data.draw(st.lists(weights(m), min_size=1, max_size=3))
    w = centered(np.array([[float(x) for x in p] for p in points]))
    f_u = kset_f(sets, [Fraction(1, m)] * m)
    for evaluator in (_acceptor(idx), _chains(idx)):
        for p in points:
            assert_matches_kset_sums(evaluator, sets, p)
        for p, gap in zip(points, evaluator.gaps(w), strict=True):
            assert abs(Fraction(gap) - factorial(k) * (f_u - kset_f(sets, p))) <= 1e-12


@PROPERTY
@given(st.data())
def test_pair_counts_and_degrees_are_read_at_one(data):
    """At x = 1 the evaluator's Hessian is the pair-count matrix and the
    chains' gradient is the degrees, both exactly, against a scan of the
    K-sets: on random supports and on F_2/F_3 linear matroids with loops and
    parallel elements."""
    if data.draw(st.booleans()):
        idx = data.draw(supports())
    else:
        matroid = data.draw(linear_matroids(max_dim=3, min_size=1, max_size=8))
        k = data.draw(st.integers(1, matroid.rank))
        sets, m, _ = with_loops(data, matroid, k)
        idx = IndepSetIndex(k, m, sets)
    m, sets, ones = idx.m, idx.sets.tolist(), [1] * idx.m
    assert hessian_f(idx, np.ones(m)).tolist() == kset_hessian(sets, ones)
    degrees = kset_gradient(sets, ones)
    chains = _acceptor(idx)
    assert chains.gradient(chains.evaluate(np.ones(m))[1]).tolist() == degrees
    assert chains.slope.tolist() == [m * d - sum(degrees) for d in degrees]


def assert_same_levels(chains, want):
    """The levels of two chains, field by field: equal arrays of equal dtypes."""
    assert len(chains.levels) == len(want.levels)
    for got, ref in zip(chains.levels, want.levels):
        for name, a, b in zip(got._fields, got, ref):
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype and np.array_equal(a, b), name


@PROPERTY
@given(linear_matroids(fields=(2, 3, 5), max_dim=4))
def test_flats_build_the_acceptors_levels(matroid):
    """On random linear matroids, parallel columns included, at every K:
    the chains built from the flats are the acceptor's, array for array."""
    for k in range(1, matroid.rank + 1):
        idx = enumerate_independent_ksets(matroid, k)
        assert_same_levels(_flats(idx, *matroid.columns), _acceptor(idx))


# 12 columns over F_65521 with two parallel pairs: q^5 >= 2^63, so a base-q
# int64 key of a residual would wrap
F65521 = LinearSpec(65521, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
                            (0, 0, 0, 0, 1), (1, 1, 0, 0, 0), (65520, 65520, 0, 0, 0),
                            (1, 2, 3, 4, 5), (2, 4, 6, 8, 10), (1, 65520, 1, 65520, 1),
                            (0, 0, 1, 1, 0), (3, 0, 1, 1, 0)))


# the 15 points of PG(3,2) with the first two repeated, as in the CI gates
PG32_REPEATS = LinearSpec(2, tuple(projective_points(4, 2) + projective_points(4, 2)[:2]))


@pytest.mark.parametrize("spec,k", [
    (ProjectiveSpec(3, 2), 3), (ProjectiveSpec(4, 2), 3), (ProjectiveSpec(3, 3), 3),
    (ProjectiveSpec(5, 2), 4), (ProjectiveSpec(4, 3), 4),
    (ParallelClassesSpec(2), 2), (ParallelClassesSpec(3), 2),
    (F65521, 3), (F65521, 4),
    # the other instances the CI gates build chains on
    (ProjectiveSpec(4, 3), 3), (ProjectiveSpec(5, 2), 5), (PG32_REPEATS, 4),
])
def test_flats_build_calls_no_oracle_and_gives_the_acceptors_values(spec, k):
    """A column matroid's index builds its chains from the flats, with no
    oracle call and no read of the sets, lazy or not; F, the gaps and the
    Hessian are those of the acceptor on the same sets, to the bit."""
    matroid = CountingMatroid(build_matroid(spec))
    idx = independent_set_index(matroid, k)
    matroid.queries.clear()
    lazy = idx._sets is None
    chains = _chains(idx)
    assert matroid.queries == []
    assert lazy == (idx._sets is None)
    ref = IndepSetIndex(k, idx.m, idx.sets)
    assert_same_levels(chains, _acceptor(ref))
    rng = np.random.default_rng(5)
    pts = rng.dirichlet(np.ones(idx.m), 6)
    pts[1, :2] = 0.0
    pts[1] /= pts[1].sum()
    for p in pts[:2]:
        assert eval_F(idx, Distribution(p, renormalize=True)) == eval_F(
            ref, Distribution(p, renormalize=True))
        assert np.array_equal(hessian_f(idx, p), hessian_f(ref, p))
    for got, want in zip(gaps_from_uniform(idx, pts), gaps_from_uniform(ref, pts)):
        assert np.array_equal(got, want)


def test_flats_refuse_a_level_over_the_cap(monkeypatch):
    """e1, e1, e2, e3 over F_2 at K = 3: its two independent 3-sets pass a
    cap of 2.  The three covers of the empty flat fill a packed byte each,
    which passes a cap of 2 bytes; at a cap of 11 they do not, but the
    three points times the 4 elements do.  No level is allocated."""
    spec = LinearSpec(2, ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def no_level(*args):
        raise AssertionError("a level was allocated")

    monkeypatch.setattr(genpoly, "_level", no_level)
    for cap, message in ((2, "the covers of a level of flats pass the cap of 2 bytes"),
                         (11, "a level of 3 flats x 4 elements is over the cap of 11")):
        idx = enumerate_independent_ksets(build_matroid(spec), 3, cap=cap)
        assert idx.n_sets == 2
        with pytest.raises(ValueError, match=message):
            _chains(idx)
        assert idx._chains is None


def test_flats_build_past_the_cap_in_bounded_memory():
    """PG(4,3) K=5 has 123,845,436 independent 5-sets, past the default cap,
    and 121, 1,210, 1,210 and 121 flats of ranks 1 to 4: at the default cap
    its chains are built from the flats in under 16 MiB, and F(u) is the
    closed form."""
    idx = independent_set_index(build_matroid(ProjectiveSpec(5, 3)), 5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chains = _chains(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [lv.starts.size for lv in chains.levels] == [121, 1210, 1210, 121, 1]
    assert peak - before <= 16 * 2**20
    assert idx._sets is None
    optimum = uniform_optimum(PGParams(5, 3, 5))
    assert abs(Fraction(eval_F(idx, Distribution.uniform(121))) - optimum) <= (
        Fraction(1e-15) * optimum)


@pytest.mark.parametrize("n,q,k", [(4, 5, 4), (6, 2, 6), (5, 3, 5)])
def test_flats_past_the_cap_need_no_index(n, q, k):
    """PG(3,5) K=4, PG(5,2) K=6 and PG(4,3) K=5 count 18.9M to 124M
    independent K-sets, past the default cap, and are checked with none
    listed: the levels are the Gaussian binomials, f(1) read off the sweep
    is the closed-form count (exact, as K! n_sets < 2^53), and F(u) is the
    closed form.  No oracle is called."""
    matroid = CountingMatroid(build_matroid(ProjectiveSpec(n, q)))
    idx = independent_set_index(matroid, k)
    count = independent_count(matroid.spec, k)
    assert idx.n_sets == count > genpoly.DEFAULT_ENUM_CAP
    assert factorial(k) * count < 2**53
    chains = _chains(idx)
    assert [lv.starts.size for lv in chains.levels] == (
        [gaussian_binomial(n, j, q) for j in range(1, k)] + [1])
    assert chains.evaluate(np.ones(idx.m))[0] == count
    optimum = uniform_optimum(PGParams(n, q, k))
    assert abs(Fraction(eval_F(idx, Distribution.uniform(idx.m))) - optimum) <= (
        Fraction(1e-15) * optimum)
    assert matroid.queries == []
    assert idx._sets is None


@pytest.mark.parametrize("n,k", [(10, 10), (11, 3)])
def test_flats_refuse_a_build_over_the_cap_early(n, k):
    """PG(9,2) K=10 has 174,251 lines of 1,023 points and PG(10,2) K=3
    698,027 lines of 2,047: past the default cap in rows, and in the bytes
    of their covers, which stop the sweep of the points before the lines
    are allocated."""
    idx = independent_set_index(build_matroid(ProjectiveSpec(n, 2)), k)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cap of {genpoly.DEFAULT_ENUM_CAP}"):
            eval_F(idx, Distribution.uniform(idx.m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2**20
    assert idx._chains is None


def test_the_row_caps_refuse_nothing_the_count_cap_let_through():
    """PG(6,2) K=4 (9,921,240 sets, under the default cap) still builds its
    127, 2,667 and 11,811 flats and gives the closed form (1.1e-15 relative,
    measured); U(200,6) K=6, with C(200,6) = 82,408,626,300 sets, evaluates
    on e_K."""
    idx = independent_set_index(build_matroid(ProjectiveSpec(7, 2)), 4)
    assert idx.n_sets == 9_921_240
    assert [lv.starts.size for lv in _chains(idx).levels] == [127, 2667, 11811, 1]
    assert eval_F(idx, Distribution.uniform(127)) == pytest.approx(
        float(uniform_optimum(PGParams(7, 2, 4))), rel=1e-14)
    idx = independent_set_index(build_matroid(UniformSpec(6, 200)), 6)
    assert idx.n_sets == 82_408_626_300
    assert eval_F(idx, Distribution.uniform(200)) == pytest.approx(
        float(Fraction(factorial(6) * idx.n_sets, 200**6)), rel=1e-14)
    assert isinstance(idx._chains, _Elementary)


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda m: st.lists(
    st.lists(st.booleans(), min_size=m, max_size=m).filter(lambda row: not all(row)),
    min_size=1, max_size=12)))
def test_top_level_is_the_sorted_levels(member):
    """The top level written from the membership rows is the level that
    _level sorts out of their signature rows, array for array and dtype for
    dtype: each row's one cover is E, with the row's complement as its
    difference set, dense rows where the largest fills half the ground set."""
    member = np.array(member)
    got, want = _top_level(member), _level(np.where(member, -1, 0))
    for name, a, b in zip(got._fields, got, want):
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_flats_top_level_needs_no_sort():
    """PG(6,2) K=4: the 11,811 planes' top level has 1.4M (plane, point)
    entries outside the planes, and the whole build traces under 80 MiB;
    a sort of those entries' signatures alone took about 87 MiB."""
    idx = independent_set_index(build_matroid(ProjectiveSpec(7, 2)), 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chains = _chains(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [lv.starts.size for lv in chains.levels] == [127, 2667, 11811, 1]
    assert chains.levels[-1].diff.shape == (120, 11811)  # 127 - 7 points outside a plane
    assert peak - before <= 80 * 2**20


def wide_index():
    """30 random 10-subsets of 100 points: m^K >= 2^63."""
    rng = np.random.default_rng(11)
    sets = {tuple(sorted(rng.choice(100, 10, replace=False).tolist())) for _ in range(30)}
    return IndepSetIndex(10, 100, sorted(sets))


def test_acceptor_keys_past_int64():
    """The keys of a wide index are Python integers, and the sums stay exact."""
    idx = wide_index()
    chains = _chains(idx)
    assert isinstance(chains, _Chains)
    integers = np.random.default_rng(12).integers(1, 100, 100).tolist()
    p = [Fraction(x, sum(integers)) for x in integers]
    assert_matches_kset_sums(chains, idx.sets.tolist(), p)
    w = centered(np.array([[float(x) for x in p]]))
    f_u = factorial(10) * kset_f(idx.sets.tolist(), [Fraction(1, 100)] * 100)
    gap = f_u - factorial(10) * kset_f(idx.sets.tolist(), p)
    assert abs(Fraction(chains.gaps(w)[0]) - gap) <= Fraction(1e-12) * f_u


def test_acceptor_refuses_a_shadow_over_the_cap(monkeypatch):
    """The wide index's 30 sets have 300 subsets of 9: over a cap of 100,
    before any signature is computed."""
    wide = wide_index()
    idx = IndepSetIndex(wide.k, wide.m, wide.sets, cap=100)

    def no_signatures(*args):
        raise AssertionError("a signature buffer was allocated")

    monkeypatch.setattr(genpoly, "_signatures", no_signatures)
    with pytest.raises(ValueError, match="shadow holds at least 300 sets, over the cap of 100"):
        _chains(idx)
    assert idx._chains is None


def test_enumeration_cap_governs_the_acceptor_build(monkeypatch):
    """PG(4,2) K=4: 26,040 sets whose shadow holds 4,340 + 465 + 31 + 1 =
    4,837 sets.  The cap an index was enumerated under bounds its build,
    whatever DEFAULT_ENUM_CAP reads."""
    monkeypatch.setattr(genpoly, "DEFAULT_ENUM_CAP", 4_836)
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(5, 2)), 4, cap=26_040)
    assert idx.cap == 26_040
    assert isinstance(_chains(idx), _Chains)
    assert eval_F(idx, Distribution.uniform(31)) == pytest.approx(
        float(Fraction(31 * 30 * 28 * 24, 31**4)), rel=1e-14)
    low = IndepSetIndex(idx.k, idx.m, idx.sets, cap=4_836)
    with pytest.raises(ValueError, match="shadow holds at least 4837 sets, over the cap of 4836"):
        _chains(low)
    assert isinstance(_chains(IndepSetIndex(idx.k, idx.m, idx.sets, cap=4_837)), _Chains)


def test_free_truncations_ascend_on_ek_without_chains():
    idx = enumerate_independent_ksets(build_matroid(UniformSpec(4, 12)), 4)
    start = Distribution(np.arange(1, 13) / 78)
    result = maximize_F(idx, AscentConfig(start=start))
    assert isinstance(idx._chains, _Elementary)
    assert result.converged
    assert result.value == 24 * eval_f(idx, result.p)
    chains = _acceptor(idx)
    x = start.probs
    f, state = idx._chains.evaluate(x)
    f_chains, sweep = chains.evaluate(x)
    assert f == pytest.approx(f_chains, rel=1e-14)
    assert np.allclose(idx._chains.gradient(state), chains.gradient(sweep), rtol=1e-14, atol=0)


def test_elementary_is_pinned_to_the_bit():
    # f, the gradient and the Hessian to the bit: a faster pass must give these
    evaluator = _Elementary(30, 4)
    x = np.random.default_rng(4).dirichlet(np.ones(30))
    f, state = evaluator.evaluate(x)
    assert f.hex() == "0x1.c55ea0ab8758bp-6"
    assert hashlib.sha256(evaluator.gradient(state).tobytes()).hexdigest() == (
        "31b7d4ef0e51beddb124e7fe6f8851f4d9e52ebebc1dc438bcbb66574d44bc46")
    assert hashlib.sha256(evaluator.hessian(x).tobytes()).hexdigest() == (
        "ba28528f45c39bebc523857384fce643e7b6e6833d6efa588cea3dd177ee4489")


def gaussian_binomial(n, j, q):
    """[n choose j]_q, the number of (j-1)-dimensional subspaces of PG(n-1, q)."""
    count = Fraction(1)
    for i in range(j):
        count *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
    return int(count)


@pytest.mark.parametrize("n,q,k", [(3, 2, 3), (4, 2, 2), (4, 3, 3), (5, 2, 4)])
def test_projective_flats_and_optimum(n, q, k):
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(n, q)), k)
    m = idx.m
    chains = _acceptor(idx)
    counts = [lv.starts.size for lv in chains.levels]
    assert counts == [gaussian_binomial(n, j, q) for j in range(1, k)] + [1]
    if (n, q, k) == (5, 2, 4):
        assert counts == [31, 155, 155, 1]
    # at x = 1 every cover factor is |F \ F'|: flat sizes follow along the covers
    _, sweep = chains._sweep(np.ones(m))
    sizes = np.zeros(1)  # F_0 is empty: no loops
    for j, (lv, (d, _)) in enumerate(zip(chains.levels, sweep), start=1):
        per_cover = sizes[lv.src] + d
        flat_of_cover = np.repeat(np.arange(lv.starts.size), lv.counts)
        sizes = per_cover[lv.starts]
        assert np.array_equal(per_cover, sizes[flat_of_cover])
        assert np.all(sizes == (m if j == k else (q**j - 1) // (q - 1)))
    top, _ = chains._sweep(np.full(m, 1.0 / m))
    optimum = uniform_optimum(PGParams(n, q, k))
    assert abs(Fraction(top) - optimum) <= Fraction(1e-15) * optimum


@pytest.mark.parametrize("spec,k", [(ProjectiveSpec(5, 2), 4), (ProjectiveSpec(4, 3), 3),
                                    (UniformSpec(3, 12), 3), (UniformSpec(4, 9), 2)])
def test_chains_match_kset_evaluators(spec, k):
    idx = enumerate_independent_ksets(build_matroid(spec), k)
    chains = _acceptor(idx)
    rng = np.random.default_rng(3)
    for trial in range(4):
        x = rng.dirichlet(np.ones(idx.m))
        if trial % 2:
            x[rng.choice(idx.m, 3, replace=False)] = 0.0
        f, sweep = chains.evaluate(x)
        assert f == pytest.approx(eval_f(idx, x), rel=1e-13)
        want = add_at_gradient(idx, x)
        assert np.allclose(chains.gradient(sweep), want, rtol=1e-13, atol=0)


def test_non_matroid_support_gets_its_minimal_acceptor():
    """{01, 23}: the four points have four links, {1}, {0}, {3} and {2}."""
    idx = enumerate_independent_ksets(build_matroid(ExplicitSpec(4, 2, ((0, 1), (2, 3)))), 2)
    start = Distribution([0.4, 0.3, 0.2, 0.1])
    result = maximize_F(idx, AscentConfig(max_iters=50, start=start))
    chains = _chains(idx)
    assert isinstance(chains, _Chains)
    assert [lv.starts.size for lv in chains.levels] == [4, 1]
    assert [lv.src.size for lv in chains.levels] == [4, 4]
    assert result.value == 2 * eval_f(idx, result.p)
    assert result.value > 2 * eval_f(idx, start)


def test_chains_are_built_by_the_first_ascent_and_kept(fano_idx):
    idx = IndepSetIndex(fano_idx.k, fano_idx.m, fano_idx.sets)
    assert idx._chains is None
    maximize_F(idx)
    chains = idx._chains
    assert chains
    maximize_F(idx)
    assert idx._chains is chains


def test_chain_build_memory_is_bounded():
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(5, 2)), 4)
    _acceptor(enumerate_independent_ksets(build_matroid(ProjectiveSpec(3, 2)), 3))  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chains = _acceptor(idx)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [lv.starts.size for lv in chains.levels] == [31, 155, 155, 1]
    assert peak - before <= 2 * 2**20
    assert kept - before <= 2**19


def test_hessian_memory_is_bounded():
    # one forward tangent pass, level by level: no adjoint tangents, and no
    # per-level rows kept for a backward pass
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(5, 2)), 4)
    x = np.full(idx.m, 1 / idx.m)
    genpoly.hessian_f(idx, x)  # builds the chains
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hess = genpoly.hessian_f(idx, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hess.shape == (31, 31)
    assert peak - before <= 1.4 * 2**20
