import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroid_sampling import (Distribution, LinearSpec, ParallelClassesSpec,
                              ProjectiveSpec, UniformSpec, build_matroid,
                              enumerate_independent_ksets, estimate_F, eval_F,
                              sample_kset)
from matroid_sampling import matroids, montecarlo
from matroid_sampling.montecarlo import DEFAULT_CHUNK, _draw_indices, _sort_across
from matroid_sampling.streams import (blocks_per_trial, trial_substream,
                                      trial_uniforms)

from conftest import CountingMatroid


@pytest.fixture(scope="module")
def pg33():
    """PG(3, 3): 40 points, rank 4."""
    return build_matroid(ProjectiveSpec(4, 3))


def _pg33_point(kind):
    """"u": the uniform point; "p": a fixed seeded Dirichlet point; "skew":
    geometric masses 0.8^i with zero ends and two runs of three masses of
    2e-14, each run inside one bucket of the draws' guide table; its
    cumulative sum ends at 1 - 4.4e-16 (the CI ``mc --dist`` gate's point)."""
    if kind == "u":
        return Distribution.uniform(40)
    if kind == "skew":
        geo = [0.8**i for i in range(32)]
        w = [0.0] + [1e-13] * 3 + geo[:16] + [1e-13] * 3 + geo[16:] + [0.0]
        total = sum(w)
        return Distribution([x / total for x in w])
    return Distribution(np.random.default_rng(2024).dirichlet(np.ones(40)))


def test_stream_slicing_matches_substreams():
    flat = trial_uniforms(99, 0, 12, 5)
    for t in range(12):
        sub = trial_substream(99, t, 5).random(5)
        assert np.array_equal(flat[t], sub)
    # chunked generation is identical to one-shot generation
    again = np.vstack([trial_uniforms(99, 0, 5, 5), trial_uniforms(99, 5, 7, 5)])
    assert np.array_equal(flat, again)


def test_blocks_per_trial():
    assert blocks_per_trial(1) == 1
    assert blocks_per_trial(4) == 1
    assert blocks_per_trial(5) == 2
    with pytest.raises(ValueError):
        blocks_per_trial(0)


def test_seed_validation():
    with pytest.raises(ValueError):
        trial_uniforms(-1, 0, 1, 2)


def test_point_mass_never_distinct(fano):
    p = Distribution([1.0, 0, 0, 0, 0, 0, 0])
    for t in range(20):
        distinct, independent = sample_kset(fano, p, 2, trial_substream(0, t, 2))
        assert not distinct and not independent


def test_simple_matroid_k2_success_iff_distinct(pg12):
    u = Distribution.uniform(3)
    for t in range(200):
        distinct, independent = sample_kset(pg12, u, 2, trial_substream(1, t, 2))
        assert distinct == independent


def test_k1_estimate_is_exactly_one(fano):
    est = estimate_F(fano, Distribution.uniform(7), 1, 500, seed=2)
    assert est.p_hat == 1.0
    assert est.std_err == 0.0


def test_k_past_the_rank_draws_nothing(fano, monkeypatch):
    # no 4 points of the Fano plane are independent, whatever is drawn
    def draw(*args):
        raise AssertionError("drew uniforms past the rank")

    monkeypatch.setattr(montecarlo, "trial_uniforms", draw)
    est = estimate_F(fano, Distribution.uniform(7), 4, 100_000, seed=3)
    assert (est.n_trials, est.successes, est.p_hat, est.std_err, est.seed) == (
        100_000, 0, 0.0, 0.0, 3)


def test_golden_fixed_seed_draws(fano):
    # frozen behaviour of (Fano, uniform, K=3) under seed 11
    u = Distribution.uniform(7)
    expected = {0: (False, False), 2: (True, False), 4: (True, True)}
    for trial, want in expected.items():
        assert sample_kset(fano, u, 3, trial_substream(11, trial, 3)) == want
    assert estimate_F(fano, u, 3, 1000, seed=11).successes == 470


def test_estimate_matches_per_trial_sampling(fano):
    u = Distribution.uniform(7)
    est = estimate_F(fano, u, 3, 400, seed=21)
    successes = sum(
        sample_kset(fano, u, 3, trial_substream(21, t, 3))[1] for t in range(400))
    assert est.successes == successes


def test_estimate_deterministic_across_chunkings(fano):
    u = Distribution.uniform(7)
    runs = [estimate_F(fano, u, 3, 20_000, seed=5, chunk=c) for c in (251, 4096, 20_000)]
    assert len({r.successes for r in runs}) == 1
    assert runs[0].p_hat == runs[1].p_hat


def test_estimate_fields():
    matroid = build_matroid(UniformSpec(2, 5))
    est = estimate_F(matroid, Distribution.uniform(5), 2, 1000, seed=9)
    assert est.n_trials == 1000
    assert 0 <= est.p_hat <= 1
    assert est.std_err == pytest.approx(
        np.sqrt(est.p_hat * (1 - est.p_hat) / 1000), abs=1e-16)
    assert est.to_json()["seed"] == 9


def test_estimate_agrees_with_exact_battery():
    rng = np.random.default_rng(17)
    battery = [
        (build_matroid(ProjectiveSpec(2, 2)), 2),
        (build_matroid(ProjectiveSpec(3, 2)), 3),
        (build_matroid(ProjectiveSpec(3, 3)), 2),
        (build_matroid(ParallelClassesSpec(2)), 2),
        (build_matroid(UniformSpec(3, 6)), 3),
        (build_matroid(LinearSpec(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))), 3),
    ]
    for seed, (matroid, k) in enumerate(battery):
        idx = enumerate_independent_ksets(matroid, k)
        for p in (Distribution.uniform(matroid.m),
                  Distribution(rng.dirichlet(np.full(matroid.m, 5.0)))):
            exact = eval_F(idx, p)
            est = estimate_F(matroid, p, k, 100_000, seed=seed)
            spread = max(est.std_err, 1e-12)
            assert abs(est.p_hat - exact) <= 4 * spread


def test_nonuniform_distribution_k2_identity(pg12):
    # for a simple matroid, P(success) = 1 - sum p_e^2
    p = Distribution([0.5, 0.25, 0.25])
    est = estimate_F(pg12, p, 2, 200_000, seed=8)
    assert abs(est.p_hat - 0.625) <= 4 * est.std_err


def test_input_validation(fano):
    u = Distribution.uniform(7)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        estimate_F(fano, u, 0, 100)
    with pytest.raises(ValueError, match="n_trials must be >= 1, got 0"):
        estimate_F(fano, u, 2, 0)
    for chunk in (0, -4):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            estimate_F(fano, u, 2, 100, chunk=chunk)
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            estimate_F(fano, u, 4, 100, chunk=chunk)  # past the rank too
    with pytest.raises(ValueError, match="distribution length 6 != ground size 7"):
        estimate_F(fano, Distribution.uniform(6), 2, 100)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        sample_kset(fano, u, 0, trial_substream(0, 0, 1))
    with pytest.raises(ValueError, match="distribution length 6 != ground size 7"):
        sample_kset(fano, Distribution.uniform(6), 2, trial_substream(0, 0, 2))


# successes recorded before the lexsort dedupe and the oracle memo existed
@pytest.mark.parametrize("kind,k,seed,n_trials,chunks,successes", [
    ("u", 4, 0, 2_000, (1, 997, 2_000), 1193),
    ("u", 4, 0, 70_000, (997, 65_536, 70_000), 41646),
    ("u", 4, 901, 2_000, (1, 997, 2_000), 1157),
    ("u", 4, 901, 70_000, (997, 65_536, 70_000), 41458),
    ("p", 2, 0, 2_000, (1, 997, 2_000), 1855),
    ("p", 2, 0, 70_000, (997, 65_536, 70_000), 65589),
    ("p", 2, 901, 2_000, (1, 997, 2_000), 1891),
    ("p", 2, 901, 70_000, (997, 65_536, 70_000), 65499),
    # recorded with binary-search draws, before the guide table
    ("skew", 3, 0, 70_000, (997, 65_536, 70_000), 44570),
    ("skew", 3, 901, 70_000, (997, 65_536, 70_000), 44621),
    ("skew", 4, 0, 70_000, (997, 65_536, 70_000), 16069),
    ("skew", 4, 901, 70_000, (997, 65_536, 70_000), 16007),
])
def test_golden_successes_pg33(pg33, kind, k, seed, n_trials, chunks, successes):
    p = _pg33_point(kind)
    for chunk in chunks:
        assert estimate_F(pg33, p, k, n_trials, seed=seed, chunk=chunk).successes == successes


def test_golden_successes_uniform_4_30():
    # U(4, 30) at u, recorded when uniform matroids kept no memo; the last
    # call asks only sets that the first two left in the memo
    matroid, u = build_matroid(UniformSpec(4, 30)), Distribution.uniform(30)
    for chunk in (DEFAULT_CHUNK, 997, DEFAULT_CHUNK):
        assert estimate_F(matroid, u, 4, 100_000, seed=1, chunk=chunk).successes == 81381


def _candidate_rows(p, k, n_trials, seed, chunk):
    """Per chunk, the sorted draws of the trials whose k draws are distinct."""
    cumulative = np.cumsum(p.probs)
    for start in range(0, n_trials, chunk):
        count = min(chunk, n_trials - start)
        draws = np.searchsorted(cumulative, trial_uniforms(seed, start, count, k), side="left")
        draws = np.minimum(draws, cumulative.size - 1)
        draws.sort(axis=1)
        yield draws[np.all(np.diff(draws, axis=1) > 0, axis=1)]


@pytest.mark.parametrize("kind,k,n_trials,chunk", [
    ("u", 4, 5_000, 997),
    ("u", 4, 5_000, 5_000),
    ("p", 2, 3_000, 1_000),
    ("u", 1, 500, 128),
    # U(11, 64) at its uniform point: 64^11 >= 2^63, so the rows are too
    # wide for packed keys and are lexsorted
    ("wide", 11, 3_000, 997),
    # windows of several draw blocks (8,192 trials at k = 4, 2,730 at
    # k = 11), each ending in a ragged block
    ("u", 4, 20_000, 20_000),
    ("wide", 11, 6_000, 6_000),
    # U(11, 64) past the five-comparator network of k = 4, on odd-even
    # transposition, with packed keys up to 64^8 = 2^48; windows of 4,096-trial
    # blocks
    ("wide", 5, 6_000, 6_000),
    ("wide", 6, 3_000, 997),
    ("wide", 8, 6_000, 6_000),
    # zero ends and runs of tiny masses, one comparator, 8,192-trial blocks
    ("skew", 2, 20_000, 20_000),
])
def test_one_oracle_call_per_distinct_set_per_chunk(pg33, kind, k, n_trials, chunk):
    if kind == "wide":
        matroid, p = build_matroid(UniformSpec(11, 64)), Distribution.uniform(64)
    else:
        matroid, p = pg33, _pg33_point(kind)
    counting = CountingMatroid(matroid)
    estimate_F(counting, p, k, n_trials, seed=3, chunk=chunk)
    # np.unique orders each chunk's distinct sets lexicographically
    expected = [tuple(row) for rows in _candidate_rows(p, k, n_trials, 3, chunk)
                for row in np.unique(rows, axis=0).tolist()]
    assert len(counting.queries) == len(expected)
    assert counting.queries == expected


@pytest.mark.parametrize("k", range(1, 13))
def test_sorting_network_sorts_every_row(k):
    """Against np.sort on random rows of many ties, and on every 0/1 row,
    which by the 0-1 principle shows that the network sorts any input."""
    binary = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    for rows in (np.random.default_rng(k).integers(0, 3, size=(1_000, k)), binary):
        got = np.stack(_sort_across(np.ascontiguousarray(rows.T)))
        assert np.array_equal(got, np.sort(rows, axis=1).T)


def test_chunks_do_not_hold_memory_across_chunks(pg33):
    u = _pg33_point("u")
    # fills the oracle memo with every set the measured calls ask, so that
    # only the chunks' own arrays are traced
    estimate_F(pg33, u, 4, 4 * DEFAULT_CHUNK, seed=5)
    peaks = []
    for n_trials in (DEFAULT_CHUNK, 4 * DEFAULT_CHUNK):
        tracemalloc.start()
        try:
            estimate_F(pg33, u, 4, n_trials, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def _window_peak(matroid, p, k):
    """Traced peak bytes of one DEFAULT_CHUNK-trial request."""
    tracemalloc.start()
    try:
        estimate_F(matroid, p, k, DEFAULT_CHUNK, seed=5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _window_cases(pg33):
    return [(pg33, _pg33_point("u"), 4),
            (build_matroid(UniformSpec(11, 64)), Distribution.uniform(64), 11)]


def test_window_memory_is_one_block_plus_its_keys(pg33):
    """A window holds one draw block and its kept keys or rows, not the
    uniforms and draws of all its trials."""
    for matroid, p, k in _window_cases(pg33):
        # fills the oracle memo, so that only the window's arrays are traced
        estimate_F(matroid, p, k, DEFAULT_CHUNK, seed=5)
        peak = _window_peak(matroid, p, k)
        assert peak < 3 << 20, (k, peak)


def test_cold_window_memory_is_one_block_plus_its_keys():
    """On a fresh matroid the window adds the memo's tables and the blocks
    that decide its new sets, and stays inside the same bound."""
    for matroid, p, k in _window_cases(build_matroid(ProjectiveSpec(4, 3))):
        peak = _window_peak(matroid, p, k)
        assert peak < 3 << 20, (k, peak)


def _decisions(matroid):
    """Wraps a matroid's scalar and batch decisions to record what they are
    asked: (the scalar asks, the row blocks)."""
    scalar, blocks = [], []
    oracle, rows_oracle = matroid._oracle, matroid._rows_oracle
    matroid._oracle = lambda s: scalar.append(s) or oracle(s)
    matroid._rows_oracle = lambda rows: blocks.append(rows.copy()) or rows_oracle(rows)
    return scalar, blocks


@pytest.mark.parametrize("spec,k", [(ProjectiveSpec(4, 3), 4), (ProjectiveSpec(5, 2), 4),
                                    (ProjectiveSpec(4, 3), 3)])
def test_cold_request_decides_its_new_sets_in_batches(spec, k):
    # four windows on a fresh matroid, each of a few thousand distinct sets:
    # the asks are those of a warm request, one per distinct set per window;
    # no ask reaches the scalar decision, and the row blocks, of at most
    # _BUILD_BLOCK // k**2 rows, decide each set the request draws exactly once
    matroid = build_matroid(spec)
    p = Distribution.uniform(matroid.m)
    scalar, blocks = _decisions(matroid)
    counting = CountingMatroid(matroid)
    first = estimate_F(counting, p, k, 20_000, seed=3, chunk=5_000)
    windows = [np.unique(rows, axis=0) for rows in _candidate_rows(p, k, 20_000, 3, 5_000)]
    assert counting.queries == [tuple(row) for rows in windows for row in rows.tolist()]
    assert scalar == []
    assert all(len(rows) <= matroids._BUILD_BLOCK // k**2 for rows in blocks)
    assert len(blocks) > len(windows)
    decided = np.concatenate(blocks)
    assert np.array_equal(np.unique(decided, axis=0), np.unique(np.concatenate(windows), axis=0))
    assert len(decided) == len(np.unique(decided, axis=0))
    blocks.clear()
    assert estimate_F(matroid, p, k, 20_000, seed=3, chunk=5_000) == first
    assert blocks == [] and scalar == []


def test_cold_requests_share_a_matroid_across_threads():
    # four threads run the same cold request on one fresh matroid at once,
    # switching every microsecond, so that their batches race to create and
    # fill the same tables; each gets the golden successes, on ten matroids
    p = _pg33_point("u")

    def run(matroid, start, got):
        start.wait(timeout=60)
        got.append(estimate_F(matroid, p, 4, 2_000, seed=901, chunk=997).successes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            matroid, start, got = build_matroid(ProjectiveSpec(4, 3)), threading.Barrier(4), []
            threads = [threading.Thread(target=run, args=(matroid, start, got)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [1157] * 4
    finally:
        sys.setswitchinterval(interval)


def test_learn_decides_nothing_past_the_memo(monkeypatch):
    # PG(3,3) under a budget that memoizes sizes 2 and 3 but not 4: a K=4
    # request decides nothing in batches, asks each distinct set per window
    # of the scalar decision, and keeps its successes golden
    row = 40 * matroids._COLEX_ENTRY_BYTES
    monkeypatch.setattr(matroids, "ORACLE_MEMO_BYTES", row + (780 + row) + (9_880 + row))
    matroid = build_matroid(ProjectiveSpec(4, 3))
    monkeypatch.undo()
    scalar, blocks = _decisions(matroid)
    counting = CountingMatroid(matroid)
    assert estimate_F(counting, _pg33_point("u"), 4, 2_000, seed=901, chunk=997).successes == 1157
    assert blocks == []
    assert scalar == counting.queries
    assert len(matroid._tables) == 4  # no table for size 4


# element 0 and the last element have probability 0, and the cumulative
# sum ends at 1 - 5e-13
_ZERO_ENDS = [0.0] + [0.1] * 9 + [0.1 - 5e-13, 0.0]
_EDGE_UNIFORMS = [0.0, np.nextafter(1.0, 0.0)]


def test_draws_never_land_on_a_zero_probability_end():
    probs = Distribution(_ZERO_ENDS).probs
    assert np.cumsum(probs)[-1] < _EDGE_UNIFORMS[1]
    assert _draw_indices(probs, np.array(_EDGE_UNIFORMS)).tolist() == [1, 10]
    # positive ends: the lowest and highest uniforms draw the first and last element
    probs = Distribution.uniform(7).probs
    assert _draw_indices(probs, np.array(_EDGE_UNIFORMS)).tolist() == [0, 6]


class _FixedUniforms:
    """A generator stub whose ``random(k)`` returns the first k given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, k):
        return self.values[:k]


def test_sample_kset_never_draws_a_zero_probability_end():
    counting = CountingMatroid(build_matroid(UniformSpec(2, len(_ZERO_ENDS))))
    p = Distribution(_ZERO_ENDS)
    assert sample_kset(counting, p, 2, _FixedUniforms(_EDGE_UNIFORMS)) == (True, True)
    assert counting.queries == [(1, 10)]


def _binary_search_draws(probs, uniforms):
    support = np.flatnonzero(probs)
    return np.clip(np.searchsorted(np.cumsum(probs), uniforms, side="left"),
                   support[0], support[-1])


@st.composite
def draw_cases(draw):
    """(probs, uniforms): masses of zero, tiny and ordinary size, with zero
    ends and a run of tiny masses at one place, scaled so that the
    cumulative sum may end below 1; uniforms at 0, just below 1, at every
    multiple of 2^-10 and just below it (each bucket edge of a guide table
    of up to 1024 buckets), at and around each cumulative sum, and random."""
    mass = st.one_of(st.just(0.0), st.floats(5e-324, 1e-12), st.floats(1e-3, 1.0))
    body = draw(st.lists(mass, min_size=1, max_size=40).filter(any))
    crowd = [draw(st.floats(5e-324, 1e-12))] * draw(st.integers(0, 30))
    at = draw(st.integers(0, len(body)))
    w = [0.0] * draw(st.integers(0, 3)) + body[:at] + crowd + body[at:] \
        + [0.0] * draw(st.integers(0, 3))
    total = sum(w)
    scale = draw(st.sampled_from([1.0, 1.0 - 2.0**-50, 1.0 - 1e-9]))
    probs = np.array([x / total * scale for x in w])
    edges = np.arange(1024) / 1024
    cum = np.cumsum(probs)
    cum = cum[cum < 1.0]
    uniforms = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges[1:], 0.0),
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
        draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))])
    return probs, np.clip(uniforms, 0.0, np.nextafter(1.0, 0.0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(draw_cases())
def test_guide_table_draws_equal_binary_search(case):
    probs, uniforms = case
    want = _binary_search_draws(probs, uniforms)
    assert np.array_equal(_draw_indices(probs, uniforms), want)
    # a column of a wider array, as the uniforms of k < 4 draws per trial arrive
    wide = np.zeros((uniforms.size, 3))
    wide[:, 1] = uniforms
    assert np.array_equal(_draw_indices(probs, wide[:, 1:2]), want[:, None])
    # and a Fortran-ordered array
    pairs = np.asfortranarray(np.stack([uniforms, uniforms[::-1]], axis=1))
    assert np.array_equal(_draw_indices(probs, pairs), np.stack([want, want[::-1]], axis=1))


def test_sample_kset_does_not_import_numpy_ma():
    """``np.unique`` would import numpy.ma, about 1 MB, on its first call."""
    code = ("import sys\n"
            "from matroid_sampling import Distribution, ProjectiveSpec, build_matroid, sample_kset\n"
            "from matroid_sampling.streams import trial_substream\n"
            "sample_kset(build_matroid(ProjectiveSpec(3, 2)), Distribution.uniform(7), 3,\n"
            "            trial_substream(0, 0, 3))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(os.path.dirname(__file__)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
