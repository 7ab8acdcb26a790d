import json
import os
import subprocess
import sys
from time import perf_counter

import pytest

from matroid_sampling.cli import main

PROJECTIVE_32 = '{"type":"projective","n":3,"q":2}'
PROJECTIVE_22 = '{"type":"projective","n":2,"q":2}'
PARALLEL_2 = '{"type":"parallel_classes","m_per_class":2}'


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
    assert report["F"] == pytest.approx(0.5, abs=1e-10)
    # feeding the emitted distribution back reproduces F to the last ulp
    emitted = json.dumps(report["p"])
    again = run_json(capsys, "eval", "--spec", PARALLEL_2, "--k", "2",
                     "--dist", emitted)
    assert again["F"] == report["F"]


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
    assert "nonunique" in report["note"]


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


def test_mc_over_cap_fails_before_simulating(capsys):
    start = perf_counter()
    code, out, err = run_cli(capsys, "mc", "--spec", '{"type":"projective","n":4,"q":5}',
                             "--k", "4", "--trials", "300000")
    assert perf_counter() - start < 1.0
    assert code == 2
    assert "exceeds cap" in json.loads(err)["error"]["message"]


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
                 ["exact-uniform", "--spec", PROJECTIVE_32, "--k", "3", "--enum-cap", "9"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"
    report = run_json(capsys, "k2check", "--spec", PROJECTIVE_22, "--k", "2")
    assert report["tol"] == 1e-12


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
