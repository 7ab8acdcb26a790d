import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from time import perf_counter

import pytest

from matroid_sampling import (Matroid, PGParams, cli, enumerate_independent_ksets,
                              uniform_optimum)
from matroid_sampling.cli import main

PROJECTIVE_32 = '{"type":"projective","n":3,"q":2}'
PROJECTIVE_22 = '{"type":"projective","n":2,"q":2}'
PARALLEL_2 = '{"type":"parallel_classes","m_per_class":2}'
U25 = '{"type":"uniform","r":2,"n":5}'
U36 = '{"type":"uniform","r":3,"n":6}'
LAYER = '{"type":"explicit","ground_size":4,"k":2,"sets":[[0,1],[2,3]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_info(capsys):
    report = run_json(capsys, "info", "--spec", PROJECTIVE_32, "--k", "3")
    assert report["m"] == 7
    assert report["rank"] == 3
    assert report["n_independent_ksets"] == 28


@pytest.mark.parametrize("spec,k,count", [
    ('{"type":"uniform","r":2,"n":5}', 2, 10),
    (PARALLEL_2, 2, 4),
])
def test_info_set_counts(capsys, spec, k, count):
    report = run_json(capsys, "info", "--spec", spec, "--k", str(k))
    assert report["n_independent_ksets"] == count


def test_info_with_generators(capsys):
    gens = "[[1,0,2,3],[0,1,3,2],[2,3,0,1]]"
    report = run_json(capsys, "info", "--spec", PARALLEL_2, "--gens", gens)
    assert report["transitive"] is True
    assert report["orbits"] == [[0, 1, 2, 3]]


def test_eval_explicit_distribution(capsys):
    report = run_json(capsys, "eval", "--spec", PROJECTIVE_22, "--k", "2",
                      "--dist", "[0.5,0.25,0.25]")
    assert report["F"] == pytest.approx(0.625, abs=1e-15)


def test_eval_uniform_reports_rational(capsys):
    report = run_json(capsys, "eval", "--spec", PROJECTIVE_32, "--k", "3",
                      "--dist", "uniform")
    assert report["F_rational"] == "24/49"
    assert report["F"] == pytest.approx(24 / 49, abs=1e-15)


def test_eval_parallel_uniform(capsys):
    report = run_json(capsys, "eval", "--spec", PARALLEL_2, "--k", "2",
                      "--dist", "uniform")
    assert report["F"] == pytest.approx(0.5, abs=1e-15)


def test_exact_uniform(capsys):
    report = run_json(capsys, "exact-uniform", "--spec", PROJECTIVE_32, "--k", "3")
    assert report["F_rational"] == "24/49"
    report = run_json(capsys, "exact-uniform",
                      "--spec", '{"type":"projective","n":3,"q":3}', "--k", "3")
    assert report["F_rational"] == "108/169"


def test_optimize_round_trips_through_eval(capsys):
    report = run_json(capsys, "optimize", "--spec", PARALLEL_2, "--k", "2",
                      "--dist", "[0.5,0.2,0.2,0.1]")
    assert report["converged"]
    assert report["stop_reason"] == "gradient"
    assert isinstance(report["halvings"], int)
    # one f sweep at the start and one per accepted step; a halved trial
    # adds one more unless it was rejected before evaluation
    assert (report["iterations"] + 1 <= report["evaluations"]
            <= report["iterations"] + 1 + report["halvings"])
    assert report["F"] == pytest.approx(0.5, abs=1e-10)
    # feeding the emitted distribution back reproduces F to the last ulp
    emitted = json.dumps(report["p"])
    again = run_json(capsys, "eval", "--spec", PARALLEL_2, "--k", "2",
                     "--dist", emitted)
    assert again["F"] == report["F"]


@pytest.mark.parametrize("spec,k,dist", [
    (PROJECTIVE_32, 3, "[0.04,0.08,0.12,0.16,0.18,0.2,0.22]"),  # chains of flats
    ('{"type":"uniform","r":3,"n":6}', 3, "[0.3,0.25,0.2,0.1,0.1,0.05]"),  # e_K
    (LAYER, 2, "[0.4,0.3,0.2,0.1]"),  # chains of a non-matroid's acceptor
])
def test_optimize_round_trips_through_eval_on_every_evaluator(capsys, spec, k, dist):
    report = run_json(capsys, "optimize", "--spec", spec, "--k", str(k), "--dist", dist)
    again = run_json(capsys, "eval", "--spec", spec, "--k", str(k),
                     "--dist", json.dumps(report["p"]))
    assert again["F"] == report["F"]


def test_consecutive_calls_share_no_state(capsys, tmp_path):
    args = ("eval", "--spec", PROJECTIVE_22, "--k", "2", "--dist", "uniform")
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.startswith("key,index,value\n")
    assert run_json(capsys, *args)["F"] == pytest.approx(2 / 3, abs=1e-15)
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *args, "--out", str(path))
    assert (code, out) == (0, "")
    assert json.loads(path.read_text())["F"] == pytest.approx(2 / 3, abs=1e-15)
    assert run_json(capsys, *args)["F"] == pytest.approx(2 / 3, abs=1e-15)
    code, out, err = run_cli(capsys, "eval", "--spec", "{not json", "--k", "2")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "ValidationError"
    assert run_json(capsys, *args)["F"] == pytest.approx(2 / 3, abs=1e-15)
    code, out, err = run_cli(capsys, "eval", "--spec", PROJECTIVE_22)  # no --k
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "UsageError"
    assert run_json(capsys, *args)["F"] == pytest.approx(2 / 3, abs=1e-15)


def test_mc_deterministic(capsys):
    args = ("mc", "--spec", PROJECTIVE_22, "--k", "2", "--trials", "20000",
            "--seed", "3")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first == second
    assert abs(first["p_hat"] - first["exact_F"]) <= 4 * first["std_err"]


def test_scan_flags_nonunique(capsys):
    report = run_json(capsys, "scan", "--spec", PARALLEL_2, "--k", "2",
                      "--samples", "5000", "--seed", "7")
    assert report["nonunique_maximizer_detected"] is True
    assert report["uniform_is_maximizer"] is True
    assert "nonunique" in report["note"]


def test_scan_notes_uniform_not_a_maximizer(capsys):
    report = run_json(capsys, "scan", "--spec", LAYER, "--k", "2", "--samples", "2000")
    assert report["uniform_is_maximizer"] is False
    assert report["nonunique_maximizer_detected"] is False
    assert report["note"] == "uniform is not a maximizer (stability ratio negative)"


def test_scan_with_every_sample_at_u_exits_2(capsys):
    # on one element every sample is u: R is undefined, and a report of
    # min_R = Infinity would not be valid JSON
    code, out, err = run_cli(capsys, "scan", "--spec", '{"type":"uniform","r":1,"n":1}',
                             "--k", "1", "--samples", "3")
    assert code == 2
    assert out == ""
    assert "coincides with the uniform distribution" in json.loads(err)["error"]["message"]


def test_scan_reports_zero_ratios_with_a_positive_sign(capsys):
    # at K = 1, F is 1 everywhere, so every gap is exactly zero: min_R is +0.0, not -0.0
    for spec in (PROJECTIVE_32, '{"type":"uniform","r":3,"n":5}'):
        code, out, err = run_cli(capsys, "scan", "--spec", spec, "--k", "1", "--samples", "200")
        assert code == 0, err
        assert '"min_R": 0.0,' in out
        assert math.copysign(1.0, json.loads(out)["min_R"]) == 1.0


def test_request_too_large_to_allocate_exits_2(capsys):
    # 10^15 ratios are 7.11 PiB, past any address space: the allocation
    # fails before memory is touched
    code, out, err = run_cli(capsys, "scan", "--spec", PROJECTIVE_32, "--k", "3",
                             "--samples", str(10**15))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "MemoryError"
    assert "Unable to allocate" in error["message"]


def test_scan_projective_positive(capsys):
    report = run_json(capsys, "scan", "--spec", PROJECTIVE_32, "--k", "3",
                      "--samples", "2000", "--seed", "7")
    assert report["min_R"] > 0
    assert report["nonunique_maximizer_detected"] is False


def test_k2check_passes(capsys):
    report = run_json(capsys, "k2check", "--spec", '{"type":"projective","n":3,"q":3}',
                      "--k", "2", "--samples", "100")
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-12


def test_k2check_exit_3_when_forced(capsys):
    code, out, err = run_cli(capsys, "k2check", "--spec", PROJECTIVE_22,
                             "--k", "2", "--tol", "0")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ToleranceFailure"


def test_exit_3_report_follows_format_and_out(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "k2check", "--spec", '{"type":"projective","n":3,"q":3}',
                             "--k", "2", "--samples", "5", "--tol", "-1",
                             "--format", "csv", "--out", str(path))
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "ToleranceFailure"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["key", "index", "value"]
    assert ["pass", "", "False"] in rows
    code, out, _ = run_cli(capsys, "k2check", "--spec", PROJECTIVE_22, "--k", "2", "--tol", "-1")
    assert code == 3
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("tol", ["-1e-3", "-1E+2", "-.5e-1"])
def test_negative_tolerance_in_exponent_form_is_a_value(capsys, tol):
    """A negative --tol in exponent notation, given as its own argument, is
    read as the value, not as an option: the same failing report as --tol=."""
    argv = ("k2check", "--spec", PROJECTIVE_22, "--k", "2", "--samples", "5")
    joined = run_cli(capsys, *argv, f"--tol={tol}")
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert (code, out, err) == joined
    assert code == 3
    report = json.loads(out)
    assert (report["tol"], report["pass"]) == (float(tol), False)


@pytest.mark.parametrize("argv", [
    ("info", "--spec", PROJECTIVE_22),
    ("k2check", "--spec", PROJECTIVE_22, "--k", "2", "--tol", "-1"),  # a failure's report
])
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "report.json"))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert "missing" in error["message"]


@pytest.mark.parametrize("argv,row", [
    (("info", "--spec", '{"type":"linear","q":3,"columns":[[1,0],[0,1],[1,2]]}', "--k", "2",
      "--gens", "[[1,2,0]]"), ["spec.columns.2", "1", "2"]),
    (("info", "--spec", LAYER, "--k", "2"), ["spec.sets.1", "0", "2"]),
    (("orbitavg", "--spec", PROJECTIVE_22, "--k", "2", "--gens", "[[1,2,0]]"),
     ["orbits.0", "2", "2"]),
])
def test_csv_rows_of_nested_lists_have_three_fields(capsys, argv, row):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "index", "value"]
    assert all(len(r) == 3 for r in rows)
    assert row in rows


@pytest.mark.parametrize("command,k", [("k2check", "2"), ("hesscheck", "3")])
def test_identity_check_memory_does_not_grow_with_samples(capsys, command, k):
    def peak(samples):
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, command, "--spec", '{"type":"projective","n":3,"q":3}',
                                   "--k", k, "--samples", str(samples))
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        return used

    one_block = peak(4096)  # the samples of one block of the scan's default chunk
    assert peak(5 * 4096) <= 1.5 * one_block


def test_hesscheck(capsys):
    report = run_json(capsys, "hesscheck", "--spec", PROJECTIVE_32, "--k", "3")
    assert report["coefficient_rational"] == "24/7"
    assert report["b2_count"] == 4
    assert report["pass"] is True
    assert report["max_relative_error_exact"] <= 1e-10
    # F is a cubic for K=3, so the symmetric second difference has no t^2 error term
    assert report["max_relative_error_fd"] <= 1e-12


def test_hesscheck_needs_k_at_least_2(capsys):
    code, out, err = run_cli(capsys, "hesscheck", "--spec", PROJECTIVE_32, "--k", "1")
    assert code == 2
    assert "k >= 2" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("k2check", "--spec", '{"type":"projective","n":3,"q":3}', "--k", "2", "--samples", "30",
     "--seed", "5"),
    ("hesscheck", "--spec", '{"type":"projective","n":4,"q":2}', "--k", "3", "--samples", "20",
     "--seed", "5"),
])
def test_identity_checks_are_deterministic(capsys, argv):
    assert run_json(capsys, *argv) == run_json(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("k2check", "--spec", '{"type":"projective","n":3,"q":3}', "--k", "2"),
    ("hesscheck", "--spec", PROJECTIVE_32, "--k", "3"),
], ids=["k2check", "hesscheck"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_identity_checks_need_a_sample(capsys, argv, samples):
    code, out, err = run_cli(capsys, *argv, "--samples", samples)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValidationError",
                                        "message": "--samples must be >= 1"}


def test_orbitavg_transitive_gives_uniform(capsys):
    gens = "[[1,0,2,3],[0,1,3,2],[2,3,0,1]]"
    report = run_json(capsys, "orbitavg", "--spec", PARALLEL_2, "--k", "2",
                      "--dist", "[0.5,0.2,0.2,0.1]", "--gens", gens)
    assert report["transitive"] is True
    assert report["averaged"] == pytest.approx([0.25] * 4, abs=1e-15)
    assert report["monotone"] is True
    assert report["h_after"] >= report["h_before"] - 1e-9


def test_pushforward(capsys):
    dist = json.dumps([0.125] * 8)
    report = run_json(capsys, "pushforward",
                      "--spec", '{"type":"projective","n":2,"q":3}',
                      "--k", "2", "--dist", dist)
    assert report["pushforward"] == pytest.approx([0.25] * 4, abs=1e-15)
    assert report["F"] == pytest.approx(0.75, abs=1e-15)
    assert report["F_uniform_rational"] == "3/4"


def test_pushforward_uniform_vector_default(capsys):
    report = run_json(capsys, "pushforward",
                      "--spec", '{"type":"projective","n":2,"q":3}',
                      "--k", "2", "--dist", "uniform")
    assert report["pushforward"] == pytest.approx([0.25] * 4, abs=1e-15)


def test_pushforward_dist_from_file(capsys, tmp_path):
    dist_path = tmp_path / "vectors.json"
    dist_path.write_text(json.dumps([0.125] * 8))
    report = run_json(capsys, "pushforward", "--spec", '{"type":"projective","n":2,"q":3}',
                      "--dist", str(dist_path))
    assert report["n_vectors"] == 8
    assert report["pushforward"] == pytest.approx([0.25] * 4, abs=1e-15)


def test_pushforward_wrong_length_exits_2(capsys):
    code, out, err = run_cli(capsys, "pushforward", "--spec", '{"type":"projective","n":2,"q":3}',
                             "--dist", json.dumps([0.2] * 5))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv,what", [
    (("eval", "--spec", '{"type": projective}', "--k", "2"), "spec"),
    (("eval", "--spec", PROJECTIVE_22, "--k", "2", "--dist", "[0.5, 0.5,"), "distribution"),
    (("info", "--spec", PARALLEL_2, "--gens", "[[1, 0, 2, 3]"), "generators"),
    (("pushforward", "--spec", '{"type":"projective","n":2,"q":3}', "--dist", "[0.125,"),
     "distribution"),
])
def test_malformed_json_exits_2(capsys, argv, what):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith(f"invalid {what} JSON")


@pytest.mark.parametrize("argv", [
    ("eval", "--spec", PROJECTIVE_22, "--k", "2", "--dist", "[{}, 1, 2]"),
    ("eval", "--spec", PROJECTIVE_22, "--k", "2", "--dist", "[true, 0, 0]"),
    ("info", "--spec", '{"type":"uniform","r":{},"n":3}'),
    ("info", "--spec", '{"type":"linear","q":3,"columns":5}'),
    ("info", "--spec", '{"type":"linear","q":3,"columns":[[1, 0.5]]}'),
    ("info", "--spec", PARALLEL_2, "--gens", "[[{}, 1, 2, 3]]"),
    ("info", "--spec", '{"type":"projective","n":2,"q":2.5}'),
    ("info", "--spec", '{"type":"projective","n":true,"q":2}'),
])
def test_wrong_typed_json_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"
    assert out == ""


def count_oracle_calls(monkeypatch) -> dict:
    """Count the calls of both Matroid oracles, by name, from now on."""
    calls = {"is_independent": 0, "independent_rows": 0}
    for name in calls:
        method = getattr(Matroid, name)

        def counted(self, arg, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, arg)

        monkeypatch.setattr(Matroid, name, counted)
    return calls


def test_mc_over_cap_fails_before_simulating(capsys, monkeypatch):
    """PG(3,5) K=4 has 806 lines of 156 points: 125,736 rows, over a cap of
    100,000, which refuses its flats build before the first trial."""
    calls = count_oracle_calls(monkeypatch)
    start = perf_counter()
    code, out, err = run_cli(capsys, "mc", "--spec", '{"type":"projective","n":4,"q":5}',
                             "--k", "4", "--trials", "300000", "--enum-cap", "100000")
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "over the cap of 100000" in json.loads(err)["error"]["message"]
    assert calls == {"is_independent": 0, "independent_rows": 0}


def test_mc_past_the_closed_form_count_reports_exact_F(capsys):
    """PG(3,5) K=4 counts 18,890,625 independent 4-sets, past the default
    cap, which no build holds: Monte Carlo runs beside its exact F(u)."""
    report = run_json(capsys, "mc", "--spec", '{"type":"projective","n":4,"q":5}', "--k", "4",
                      "--trials", "2000")
    assert report["exact_F"] == pytest.approx(
        float(uniform_optimum(PGParams(4, 5, 4))), rel=1e-15)
    assert abs(report["p_hat"] - report["exact_F"]) <= 4 * report["std_err"]


def test_mc_refuses_an_over_cap_evaluator_before_simulating(capsys, monkeypatch):
    """Three disjoint 4-sets pass a cap of 10; the shadow refuses the
    evaluator's build before the first of 10^7 trials."""
    calls = count_oracle_calls(monkeypatch)
    spec = '{"type":"explicit","ground_size":12,"k":4,"sets":[[0,1,2,3],[4,5,6,7],[8,9,10,11]]}'
    start = perf_counter()
    code, out, err = run_cli(capsys, "mc", "--spec", spec, "--k", "4", "--enum-cap", "10",
                             "--trials", "10000000")
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "over the cap of 10" in json.loads(err)["error"]["message"]
    assert calls["is_independent"] == 0


LAZY_REQUESTS = [
    ["info", "--spec", PROJECTIVE_32, "--k", "3"],
    ["info", "--spec", '{"type":"projective","n":5,"q":2}', "--k", "4"],
    ["info", "--spec", U25, "--k", "2"],
    ["eval", "--spec", PROJECTIVE_22, "--k", "2", "--dist", "[0.5,0.25,0.25]"],
    ["eval", "--spec", U36, "--k", "3", "--dist", "[0.3,0.25,0.2,0.1,0.1,0.05]"],
    ["optimize", "--spec", U25, "--k", "2", "--dist", "[0.4,0.3,0.1,0.1,0.1]"],
    ["k2check", "--spec", '{"type":"projective","n":3,"q":3}', "--k", "2", "--samples", "20"],
    ["orbitavg", "--spec", U25, "--k", "2", "--dist", "[0.4,0.3,0.1,0.1,0.1]",
     "--gens", "[[1,2,3,4,0]]"],
    ["scan", "--spec", U36, "--k", "3", "--samples", "500"],
    ["scan", "--spec", PROJECTIVE_32, "--k", "2", "--samples", "500"],
    # chains built from the flats of a projective geometry: no oracle and no K-set
    ["hesscheck", "--spec", '{"type":"projective","n":4,"q":2}', "--k", "3", "--samples", "5"],
    ["pushforward", "--spec", PROJECTIVE_32, "--k", "3"],
    ["eval", "--spec", '{"type":"projective","n":4,"q":2}', "--k", "3",
     "--dist", json.dumps([i / 120 for i in range(1, 16)])],
]


@pytest.mark.parametrize("argv", LAZY_REQUESTS)
def test_closed_form_counts_and_free_supports_call_no_oracle(capsys, monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "independent_set_index", enumerate_independent_ksets)
        code, eager, err = run_cli(capsys, *argv)
    assert code == 0, err
    calls = count_oracle_calls(monkeypatch)
    code, lazy, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert calls == {"is_independent": 0, "independent_rows": 0}
    assert lazy == eager


def test_info_reports_a_closed_form_count_over_the_cap(capsys, monkeypatch):
    """The cap bounds what a build holds, and info builds nothing."""
    calls = count_oracle_calls(monkeypatch)
    assert run_json(capsys, "info", "--spec", '{"type":"projective","n":5,"q":2}', "--k", "4",
                    "--enum-cap", str(26_040 - 1))["n_independent_ksets"] == 26_040
    assert calls == {"is_independent": 0, "independent_rows": 0}


def test_enum_cap_bounds_the_evaluator_build(capsys):
    """Three disjoint 4-sets pass a cap of 10, their 43-set shadow does not."""
    spec = '{"type":"explicit","ground_size":12,"k":4,"sets":[[0,1,2,3],[4,5,6,7],[8,9,10,11]]}'
    code, out, err = run_cli(capsys, "eval", "--spec", spec, "--k", "4", "--enum-cap", "10")
    assert code == 2
    assert "over the cap of 10" in json.loads(err)["error"]["message"]
    report = run_json(capsys, "eval", "--spec", spec, "--k", "4", "--enum-cap", "43")
    assert report["F"] == pytest.approx(3 * 24 / 12**4, rel=1e-14)


@pytest.mark.parametrize("argv,message", [
    (["k2check", "--spec", '{"type":"uniform","r":2,"n":30}', "--k", "2"],
     "needs a projective matroid spec"),
    (["k2check", "--spec", '{"type":"projective","n":4,"q":2}', "--k", "4"], "needs --k 2"),
    (["hesscheck", "--spec", '{"type":"uniform","r":2,"n":30}', "--k", "2"],
     "needs a projective matroid spec"),
])
def test_identity_gates_run_before_the_enumeration(capsys, argv, message):
    # each request enumerates more sets than the cap: the gate must answer first
    code, out, err = run_cli(capsys, *argv, "--enum-cap", "10")
    assert code == 2
    assert message in json.loads(err)["error"]["message"]


def test_validation_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--spec", '{"type":"nope"}', "--k", "2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"
    code, out, err = run_cli(capsys, "eval", "--spec", PROJECTIVE_22, "--k", "9",
                             "--dist", "uniform")
    assert code == 2
    code, out, err = run_cli(capsys, "eval", "--spec", PROJECTIVE_22, "--k", "2",
                             "--dist", "[0.5,0.5]")
    assert code == 2


def test_flags_are_declared_only_where_read(capsys):
    for argv in (["eval", "--spec", PROJECTIVE_22, "--k", "2", "--threads", "2"],
                 ["eval", "--spec", PROJECTIVE_22, "--k", "2", "--seed", "1"],
                 ["scan", "--spec", PROJECTIVE_22, "--k", "2", "--tol", "1e-3"],
                 ["exact-uniform", "--spec", PROJECTIVE_32, "--k", "3", "--enum-cap", "9"],
                 ["optimize", "--spec", PROJECTIVE_32, "--k", "3", "--step", "0.5"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"
    report = run_json(capsys, "k2check", "--spec", PROJECTIVE_22, "--k", "2")
    assert report["tol"] == 1e-12


@pytest.mark.parametrize("argv", [
    ("hesscheck", "--spec", PROJECTIVE_32, "--k", "3", "--tol", "nan"),
    ("hesscheck", "--spec", PROJECTIVE_32, "--k", "3", "--tol", "inf"),
    ("hesscheck", "--spec", PROJECTIVE_32, "--k", "3", "--tol", "-inf"),
    ("optimize", "--spec", PROJECTIVE_32, "--k", "3", "--tol", "nan"),
    ("info", "--spec", PROJECTIVE_32, "--k", "3", "--enum-cap", "-5"),
])
def test_non_finite_tolerance_and_negative_cap_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_usage_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--spec", PROJECTIVE_22)  # missing --k
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_spec_and_dist_from_files(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(PROJECTIVE_22)
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[0.5, 0.25, 0.25]")
    report = run_json(capsys, "eval", "--spec", str(spec_path), "--k", "2",
                      "--dist", str(dist_path))
    assert report["F"] == pytest.approx(0.625, abs=1e-15)


def test_out_file_and_csv(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "eval", "--spec", PROJECTIVE_22, "--k", "2",
                         "--dist", "uniform", "--format", "csv",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "key,index,value"
    values = {line.split(",")[0]: line.split(",")[2] for line in lines[1:]}
    assert float(values["F"]) == pytest.approx(2 / 3, abs=1e-15)


def test_subprocess_entry_point():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "matroid_sampling.cli", "exact-uniform",
         "--spec", PROJECTIVE_32, "--k", "3"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["F_rational"] == "24/49"
