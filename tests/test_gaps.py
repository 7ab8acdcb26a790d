"""The centered gap evaluator F(u) - F(p) and the scan built on it.

Golden values pin the scan's argmin bit for bit and its minimum ratio to
within 4 ulp, and every golden sample's gap is checked against exact
rational arithmetic.  Property tests compare each of the evaluator's two
builds (e_K on free truncations, the chains of the minimal acceptor)
against exact rational arithmetic on random small linear matroids and
random supports, check
that neither the row blocking nor the scan's chunk size changes a bit of
the output, and that memory does not grow with the batch.  The projective
scan's Möbius screen is checked against a chain-only scan written here,
and its rounding bound against the chains' gaps.
"""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroid_sampling import (ExplicitSpec, IndepSetIndex, LinearSpec, PGParams, ProjectiveSpec,
                              UniformSpec, build_matroid, enumerate_independent_ksets,
                              gaps_from_uniform, genpoly, mobius_coefficients, projective,
                              projective_points, stability_scan)
from conftest import centered, kset_f, linear_matroids, supports, with_loops
from matroid_sampling.genpoly import _acceptor, _centred, _chains, _Elementary
from matroid_sampling.projective import SCAN_CHUNK, _scan_samples
from matroid_sampling.streams import trial_uniforms

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("spec,mode,min_r,digest", [  # spec: (matroid spec, K)
    ((ProjectiveSpec(4, 2), 3), "dirichlet", "0x1.84ae0973d9304p+0",
     "cac91d4088c2bb552bae4117a9465856d98503efacb05dc950a7f84bb3fe8278"),
    ((ProjectiveSpec(4, 2), 3), "sparse", "0x1.999999999999ap-1",
     "a18ff79d412c3b64c1ca688ff90e66cdde2613d7a11cbfa9de7cdccb41a5404b"),
    ((UniformSpec(3, 8), 3), "dirichlet", "0x1.39c44e9cdc4fdp+0",
     "fb5ffeb6994a5970b101d633a75b647bfa77c02b2825b6e0c4a5346096594011"),
    # PG(4,2) K=4, whose top level gathers the 7 points of each plane instead
    # of the 24 outside it
    ((ProjectiveSpec(5, 2), 4), "dirichlet", "0x1.683d407ec0f72p+1",
     "c786edfe8e17753d4386122b7d7f001cf1b04010374667e5cbff1b98c737e507"),
    ((ProjectiveSpec(5, 2), 4), "sparse", "0x1.6606ed161c3cbp-1",
     "46bf47313eb00c9539d8e5438696cf4693c54d3e01336ca87cc8ba19e3cfb7ab"),
])
def test_scan_golden(spec, mode, min_r, digest):
    idx = enumerate_independent_ksets(build_matroid(spec[0]), spec[1])
    report = stability_scan(idx, 2000, 7, mode=mode)
    # the K = 3 values were recorded on the K-set sums; the chains and e_K sum in another order
    assert ulps(report.min_ratio, float.fromhex(min_r)) <= 4
    assert hashlib.sha256(report.argmin.astype(np.float64).tobytes()).hexdigest() == digest
    assert report.skipped == 0
    pts = _scan_samples(7, 0, 2000, idx.m, mode)
    gaps, _ = gaps_from_uniform(idx, pts)
    at = [i for i, p in enumerate(pts) if np.array_equal(p, report.argmin)]
    assert at
    # every sample's exact gap on the small indexes; the argmin's on PG(4,2) K=4
    for i in (range(len(pts)) if idx.n_sets < 1000 else at):
        exact = exact_gap(idx, pts[i])
        assert abs(Fraction(gaps[i]) - exact) <= Fraction(1e-12) * abs(exact)


def ulps(a: float, b: float) -> int:
    """Distance between two finite floats of one sign, in units in the last place."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def exact_gap(idx, p) -> Fraction:
    """F(u) - F(p) in exact arithmetic at the float point p, summed over the
    K-sets with the coordinates as integers over their common power of two."""
    m, k = idx.m, idx.k
    ratios = [Fraction(x).as_integer_ratio() for x in p.tolist()]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    total = sum(prod(ints[e] for e in s) for s in idx.sets.tolist())
    return factorial(k) * (Fraction(idx.n_sets, m**k) - Fraction(total, scale**k))


@pytest.mark.parametrize("m", [1, 2, 7, 31])
def test_sparse_support_is_the_lowest_ranked_elements(m):
    count = 300
    pts = _scan_samples(3, 11, count, m, "sparse")
    u = trial_uniforms(3, 11, count, 2 * m + 1)
    for i in range(count):
        size = 1 + min(int(u[i, 0] * m), m - 1)
        support = np.argsort(u[i, 1:1 + m])[:size]
        weights = np.zeros(m)
        weights[support] = -np.log1p(-u[i, 1 + m:])[support]
        # atol = 0: every entry outside the support must be exactly zero
        np.testing.assert_allclose(pts[i], weights / weights.sum(), rtol=1e-15, atol=0)


def test_gaps_shape_validated(fano_idx):
    with pytest.raises(ValueError, match="shape"):
        gaps_from_uniform(fano_idx, np.full(7, 1 / 7))
    with pytest.raises(ValueError, match="shape"):
        gaps_from_uniform(fano_idx, np.full((2, 6), 1 / 6))


@st.composite
def rational_points(draw, m):
    """A rational distribution on m points: dense, sparse, a point mass or uniform."""
    kind = draw(st.sampled_from(("dense", "sparse", "point", "uniform")))
    if kind == "point":
        weights = [0] * m
        weights[draw(st.integers(0, m - 1))] = 1
    elif kind == "uniform":
        weights = [1] * m
    else:
        low = 1 if kind == "dense" else 0
        weights = draw(st.lists(st.integers(low, 9), min_size=m, max_size=m).filter(any))
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@PROPERTY
@given(st.data())
def test_gaps_match_exact_rationals(data):
    matroid = data.draw(linear_matroids())
    m = matroid.m
    k = data.draw(st.integers(1, matroid.rank))
    points = data.draw(st.lists(rational_points(m), min_size=1, max_size=4))
    sets = [s for s in combinations(range(m), k) if matroid.is_independent(s)]
    f_u = factorial(k) * Fraction(len(sets), m**k)
    gaps, norm2 = gaps_from_uniform(enumerate_independent_ksets(matroid, k),
                                    np.array([[float(x) for x in p] for p in points]))
    for p, gap, n2 in zip(points, gaps, norm2):
        exact_gap = f_u - factorial(k) * kset_f(sets, p)
        exact_norm2 = sum((x - Fraction(1, m)) ** 2 for x in p)
        assert abs(gap - float(exact_gap)) <= 1e-12
        assert abs(n2 - float(exact_norm2)) <= 1e-14


@PROPERTY
@given(st.data())
def test_scan_independent_of_chunk(data):
    matroid = data.draw(linear_matroids())
    idx = enumerate_independent_ksets(matroid, data.draw(st.integers(1, matroid.rank)))
    n_samples = data.draw(st.integers(1, 60))
    seed = data.draw(st.integers(0, 2**32))
    mode = data.draw(st.sampled_from(("dirichlet", "sparse")))
    chunk = data.draw(st.integers(1, 70))
    whole = stability_scan(idx, n_samples, seed, mode=mode, chunk=n_samples)
    parts = stability_scan(idx, n_samples, seed, mode=mode, chunk=chunk)
    assert parts.min_ratio == whole.min_ratio
    assert np.array_equal(parts.argmin, whole.argmin)
    assert np.array_equal(parts.histogram_counts, whole.histogram_counts)
    assert np.array_equal(parts.histogram_edges, whole.histogram_edges)
    assert parts.skipped == whole.skipped


def evaluators(idx):
    """The chains of the minimal acceptor, and e_K when every K-subset is a
    set."""
    found = [_acceptor(idx)]
    if idx.n_sets == comb(idx.m, idx.k):
        found.append(_Elementary(idx.m, idx.k))
    return found


@PROPERTY
@given(st.data())
def test_chain_and_ek_gaps_match_exact_rationals(data):
    matroid = data.draw(linear_matroids(fields=(2, 3, 5), max_dim=4, min_size=1))
    k = data.draw(st.integers(1, matroid.rank))
    sets, m, _ = with_loops(data, matroid, k)
    idx = IndepSetIndex(k, m, sets)
    points = data.draw(st.lists(rational_points(idx.m), min_size=1, max_size=4))
    pts = np.array([[float(x) for x in p] for p in points])
    # and a point within about 1e-7 of u, where the gap is O(1e-14)
    nudge = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=idx.m, max_size=idx.m)))
    w = centered(np.vstack([pts, 1.0 / idx.m + 1e-8 * (nudge - nudge.mean())]))
    for evaluator in evaluators(idx):
        for row, gap in zip(w, evaluator.gaps(w)):
            exact, norm2 = exact_centered_gap(idx, row)
            # near u the gap is O(||p - u||^2): measure the error on that scale
            assert abs(Fraction(gap) - exact) <= Fraction(1e-12) * max(abs(exact), norm2)


def exact_centered_gap(idx, w) -> tuple[Fraction, Fraction]:
    """(the gap the evaluators compute from the float row w, ||w / m||^2),
    exactly: -K! m^-K (sum over K-sets of prod(1 + w_e) - 1, less the
    mean-degree multiple of sum(w), which is zero up to rounding)."""
    m, k = idx.m, idx.k
    ws = [Fraction(x) for x in w.tolist()]
    expansion = sum(prod(1 + ws[e] for e in s) - 1 for s in idx.sets.tolist())
    mean_degree = Fraction(k * idx.n_sets, m)
    total = expansion - mean_degree * sum(ws)
    return -factorial(k) * total / m**k, sum(x * x for x in ws) / m**2


@PROPERTY
@given(st.data())
def test_chain_and_ek_gaps_independent_of_row_blocks(data):
    matroid = data.draw(linear_matroids())
    idx = enumerate_independent_ksets(matroid, data.draw(st.integers(1, matroid.rank)))
    batch = data.draw(st.integers(3, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    pts = rng.dirichlet(np.full(idx.m, data.draw(st.sampled_from((0.1, 1.0)))), size=batch)
    pts[0] = 1.0 / idx.m
    w = centered(pts)
    ragged = data.draw(st.integers(2, batch - 1).filter(lambda r: batch % r))
    for evaluator in evaluators(idx):
        row = 8 * idx.m if isinstance(evaluator, _Elementary) else evaluator._row_bytes()
        results = []
        for budget in (1, ragged * row, batch * row):  # one row, ragged last block, one block
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(genpoly, "GAP_BLOCK_BYTES", budget)
                results.append(evaluator.gaps(w))
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


@PROPERTY
@given(st.data())
def test_gaps_independent_of_row_blocks(data):
    """gaps_from_uniform end to end on random supports, most of them not
    matroids: one row, a ragged last block and one block give the same
    bits, and each agrees with exact rational arithmetic."""
    idx = data.draw(supports())
    batch = data.draw(st.integers(3, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    pts = rng.dirichlet(np.full(idx.m, data.draw(st.sampled_from((0.1, 1.0)))), size=batch)
    pts[0] = 1.0 / idx.m
    ragged = data.draw(st.integers(2, batch - 1).filter(lambda r: batch % r))
    evaluator = _chains(idx)
    row = 8 * idx.m if isinstance(evaluator, _Elementary) else evaluator._row_bytes()
    results = []
    for budget in (1, ragged * row, batch * row):  # one row, ragged last block, one block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(genpoly, "GAP_BLOCK_BYTES", budget)
            results.append(gaps_from_uniform(idx, pts)[0])
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])
    for w, gap in zip(centered(pts), results[0]):
        exact, norm2 = exact_centered_gap(idx, w)
        assert abs(Fraction(gap) - exact) <= Fraction(1e-12) * max(abs(exact), norm2)


def test_gaps_on_irregular_covers():
    """Parallel elements give the nodes of a level unequal cover counts: the
    line through a, b and a + b has three covers, each line through c two.
    Slot j of a level holds one cover of each node with more than j, so
    the slots hold every cover once, and the gaps match exact rationals."""
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    matroid = build_matroid(LinearSpec(2, (a, a, a, b, (1, 1, 0), c, c)))
    pts = np.array([[1 / 7] * 7, [1, 0, 0, 0, 0, 0, 0], [0, 0.5, 0, 0.25, 0, 0.25, 0],
                    [0.3, 0.05, 0.1, 0.2, 0.15, 0.1, 0.1]])
    nudge = np.array([3, -1, 4, -1, -5, 9, -9])
    w = centered(np.vstack([pts, 1 / 7 + 1e-8 * (nudge - nudge.mean())]))
    for k in (2, 3):
        idx = enumerate_independent_ksets(matroid, k)
        chains = _acceptor(idx)
        *levels, top = chains._gap_plan()
        for lv, (_, slots) in zip(chains.levels, levels):
            touched = [s.src.size for s in slots]
            assert touched == [np.count_nonzero(lv.counts > j) for j in range(lv.counts.max())]
            assert sum(touched) == lv.src.size
        assert [s.src.size for s in top[1]] == [chains.levels[-1].src.size]
        for row, gap in zip(w, chains.gaps(w)):
            exact, norm2 = exact_centered_gap(idx, row)
            assert abs(Fraction(gap) - exact) <= Fraction(1e-12) * max(abs(exact), norm2)
    assert sorted(chains.levels[1].counts) == [2, 2, 2, 3]


def test_gaps_of_a_one_node_slot_independent_of_row_blocks():
    """A slot that reaches one node and gathers 10 columns: the line through
    five copies each of a, b and a + b is the only node with a third cover.
    Summed over a block of one row, its gathered columns would form one
    strided run, which numpy sums pairwise; the kernel's blocks never do."""
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    idx = enumerate_independent_ksets(build_matroid(LinearSpec(2, (a,) * 5 + (b,) * 5
                                                                + ((1, 1, 0),) * 5 + (c,))), 3)
    chains = _acceptor(idx)
    assert chains._gap_plan()[1][1][-1].gather.shape == (10, 1)  # level 2, slot 2
    w = centered(np.random.default_rng(1).dirichlet(np.full(idx.m, 0.3), size=200))
    results = []
    for budget in (1, w.shape[0] * chains._row_bytes()):  # one row, one block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(genpoly, "GAP_BLOCK_BYTES", budget)
            results.append(chains.gaps(w))
    assert np.array_equal(results[0], results[1])


def test_gaps_route_by_support():
    """e_K on a free truncation, and the minimal acceptor on other matroids
    and on a non-matroid, there bit for bit as the K-set sums gave before
    the chains existed."""
    free = enumerate_independent_ksets(build_matroid(UniformSpec(3, 7)), 3)
    assert isinstance(_chains(free), _Elementary)
    fano = enumerate_independent_ksets(build_matroid(ProjectiveSpec(3, 2)), 3)
    assert isinstance(_chains(fano), genpoly._Chains)
    idx = enumerate_independent_ksets(build_matroid(ExplicitSpec(4, 2, ((0, 1), (2, 3)))), 2)
    pts = np.array([[0.4, 0.3, 0.2, 0.1], [0.25] * 4, [1.0, 0, 0, 0], [0.1, 0.2, 0.3, 0.4]])
    gaps, norm2 = gaps_from_uniform(idx, pts)
    assert [lv.starts.size for lv in _chains(idx).levels] == [4, 1]
    # the gap at u is exactly zero, with a positive sign
    assert [g.hex() for g in gaps] == ["-0x1.eb851eb851eb6p-6", "0x0.0p+0", "0x1.0000000000000p-2",
                                       "-0x1.eb851eb851eb6p-6"]
    assert [n.hex() for n in norm2] == ["0x1.999999999999ap-5", "0x0.0p+0", "0x1.8000000000000p-1",
                                        "0x1.999999999999ap-5"]


def traced_peak(idx, pts) -> int:
    tracemalloc.start()
    try:
        gaps_from_uniform(idx, pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gaps_memory_does_not_grow_with_batch():
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(4, 2)), 4)
    assert idx.n_sets == 840
    rng = np.random.default_rng(3)
    small, large = (rng.dirichlet(np.ones(idx.m), size=rows) for rows in (50, 2000))
    # a (2000, n_sets) float64 array alone would take 13 MB
    assert traced_peak(idx, small) < 2 * 2**20
    assert traced_peak(idx, large) < 2 * 2**20
    assert traced_peak(idx, large) - traced_peak(idx, small) <= 4 * (large.nbytes - small.nbytes)


def test_gaps_memory_on_pg_4_2():
    idx = enumerate_independent_ksets(build_matroid(ProjectiveSpec(5, 2)), 4)
    pts = np.random.default_rng(4).dirichlet(np.ones(idx.m), size=1000)
    # 26,040 sets in 31/155/155/1 flats; a (1000, n_sets) array alone is 208 MB
    assert traced_peak(idx, pts) < 4 * 2**20


# the projective indexes the scan screens, by (n, q, K) of PG(n-1, q)
SCREENED = {(n, q, k): PGParams(n, q, k).index()
            for n, q, k in ((3, 2, 3), (4, 2, 3), (4, 2, 4), (3, 3, 3), (5, 2, 3), (5, 2, 4),
                            (4, 3, 4))}


def chain_scan(idx, n_samples, seed, mode):
    """(min_R, argmin, skipped) of a scan that takes every sample's gap from
    the chains: the scan's samples, the skip rule and its first strict minimum."""
    pts = _scan_samples(seed, 0, n_samples, idx.m, mode)
    gaps, norm2 = gaps_from_uniform(idx, pts)
    keep = norm2 > 1e-24
    ratios = gaps[keep] / norm2[keep]
    i = int(np.argmin(ratios))
    return ratios[i], pts[keep][i], n_samples - int(keep.sum())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_screened_scan_is_the_chain_scan(data):
    key = data.draw(st.sampled_from(sorted(SCREENED)))
    idx = SCREENED[key]
    n_samples = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2**32))
    mode = data.draw(st.sampled_from(("dirichlet", "sparse")))
    min_r, argmin, skipped = chain_scan(idx, n_samples, seed, mode)
    reports = [stability_scan(idx, n_samples, seed, mode=mode, chunk=chunk)
               for chunk in (1, 7, SCAN_CHUNK)]
    for report in reports:
        assert report.min_ratio.hex() == min_r.hex()
        assert np.array_equal(report.argmin, argmin)
        assert report.skipped == skipped
        assert np.array_equal(report.histogram_counts, reports[0].histogram_counts)
        assert np.array_equal(report.histogram_edges, reports[0].histogram_edges)


def near_u_points(m: int, rng) -> np.ndarray:
    """Dirichlet, sparse and point-mass samples, and u + eps v / m for unit
    directions v scaled to norm sqrt(m), eps from 1e-3 down to 1e-11."""
    pts = [_scan_samples(5, 0, 300, m, "dirichlet"), _scan_samples(5, 0, 300, m, "sparse"),
           np.eye(m)]
    for eps in (1e-3, 1e-6, 1e-9, 1e-11):
        v = centered(rng.standard_normal((40, m)))
        v *= np.sqrt(m) / np.linalg.norm(v, axis=1, keepdims=True)
        pts.append(1.0 / m + eps * v / m)
    return np.vstack(pts)


@pytest.mark.parametrize("key", [(4, 2, 3), (4, 2, 4), (3, 3, 3), (5, 2, 4), (4, 3, 4)])
def test_screen_bound_has_headroom(key):
    # the screened gap stays within an eighth of its bound of the chains' gap,
    # from the simplex's corners to 1e-11 of u
    idx = SCREENED[key]
    pts = near_u_points(idx.m, np.random.default_rng(sum(key)))
    w, norm2 = _centred(idx, pts)
    assert np.all(norm2 > 1e-24)
    screened, bounds = _chains(idx).screen(w, mobius_coefficients(*key))
    gaps, _ = gaps_from_uniform(idx, pts)
    assert np.all(np.abs(screened - gaps) <= bounds / 8)
    assert np.all(bounds > 0)


def test_screen_independent_of_row_blocks(monkeypatch):
    idx = SCREENED[(5, 2, 4)]
    w, _ = _centred(idx, near_u_points(idx.m, np.random.default_rng(8)))
    chains, coefficients = _chains(idx), mobius_coefficients(5, 2, 4)
    whole = chains.screen(w, coefficients)
    for block_bytes in (1, 3000, 40000):
        monkeypatch.setattr(genpoly, "GAP_BLOCK_BYTES", block_bytes)
        parts = chains.screen(w, coefficients)
        assert all(np.array_equal(a, b) for a, b in zip(parts, whole))


def test_zero_gaps_have_a_positive_sign():
    # at u the chains' gap and the screened gap are exactly zero, and +0.0
    idx = SCREENED[(4, 2, 4)]
    w, _ = _centred(idx, np.full((3, idx.m), 1.0 / idx.m))
    gaps, bounds = _chains(idx).screen(w, mobius_coefficients(4, 2, 4))
    for g in (gaps, _chains(idx).gaps(w)):
        assert [x.hex() for x in g] == ["0x0.0p+0"] * 3
    assert not np.any(bounds)


@pytest.mark.parametrize("mode", ["dirichlet", "sparse"])
def test_scan_holds_while_the_screen_is_within_its_bound(monkeypatch, mode):
    # an adversarial screen, 0.9 of its bound off the chains: above them on the
    # chains' argmin, below them on every other row, the argmin's ties among
    # the sparse point masses included; min_R and the argmin stay the chains'
    idx = SCREENED[(5, 2, 4)]
    screen = genpoly._Chains.screen

    def skewed(self, w, coefficients):
        _, bounds = screen(self, w, coefficients)
        gaps = self.gaps(w)
        sign = np.full(len(w), -0.9)
        sign[np.argmin(gaps / (np.einsum("ij,ij->i", w, w) / (self.m * self.m)))] = 0.9
        return gaps + sign * bounds, bounds

    monkeypatch.setattr(genpoly._Chains, "screen", skewed)
    min_r, argmin, _ = chain_scan(idx, 2000, 7, mode)
    report = stability_scan(idx, 2000, 7, mode=mode)
    assert report.min_ratio.hex() == min_r.hex()
    assert np.array_equal(report.argmin, argmin)


def abs_form_screen(chains, w, coefficients):
    """The screen's gaps and bounds in one row block, the bound's sum
    |poly_U| taken with np.abs."""
    m, k, flats = chains.m, chains.k, chains.flat_points()
    wt = np.zeros((m + 1, max(len(w), 2)))
    wt[:m, :len(w)] = w.T
    total, size = np.zeros((2, wt.shape[1]))
    for c, points in zip(coefficients, flats):
        a = points.shape[0]
        x = wt.take(points[0], axis=0)
        for row in points[1:]:
            x = x + wt.take(row, axis=0)
        poly = x + k * a
        for j in range(k - 2, 1, -1):
            poly = poly * x + comb(k, j) * a ** (k - j)
        poly = poly * x * x
        total += float(c) * np.add.reduce(poly, axis=0)
        size += float(abs(c)) * np.add.reduce(np.abs(poly), axis=0)
    scale = float(m) ** (-k)
    slack = 64 * (k + flats[-1].shape[0]) * 2.0**-53 * scale
    return 0.0 - scale * total[:len(w)], slack * size[:len(w)]


@pytest.mark.parametrize("key", sorted(SCREENED))
def test_screen_is_its_abs_form(monkeypatch, key):
    # every poly_U is >= 0, so one sum serves the gap and the bound: both are
    # the abs form's to the bit, on corners, sparse samples and near u
    monkeypatch.setattr(genpoly, "GAP_BLOCK_BYTES", 1 << 30)  # one row block, as the reference
    idx = SCREENED[key]
    w, _ = _centred(idx, near_u_points(idx.m, np.random.default_rng(sum(key))))
    coefficients = mobius_coefficients(*key)
    got, want = _chains(idx).screen(w, coefficients), abs_form_screen(_chains(idx), w, coefficients)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_screen_confirms_few_rows(monkeypatch):
    # PG(4,2) K=4: of 2,000 Dirichlet samples, the chains take the gaps of
    # at most 8; every other spec, and PG at K <= 2 (e_K), sends whole chunks
    rows = []
    gaps = genpoly._Chains.gaps
    monkeypatch.setattr(genpoly._Chains, "gaps",
                        lambda self, w: rows.append(len(w)) or gaps(self, w))
    idx = SCREENED[(5, 2, 4)]
    report = stability_scan(idx, 2000, 7)
    assert 1 <= sum(rows) <= 8
    assert report.min_ratio.hex() == chain_scan(idx, 2000, 7, "dirichlet")[0].hex()
    calls = []
    whole = projective.gaps_from_uniform
    monkeypatch.setattr(projective, "gaps_from_uniform",
                        lambda idx, pts: calls.append(len(pts)) or whole(idx, pts))
    pg42 = LinearSpec(2, tuple(projective_points(5, 2)))
    for spec, k in ((pg42, 4), (ProjectiveSpec(3, 3), 2), (UniformSpec(3, 8), 3)):
        calls.clear()
        stability_scan(enumerate_independent_ksets(build_matroid(spec), k), 700, 1, chunk=300)
        assert calls == [300, 300, 100]
