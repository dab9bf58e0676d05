import concurrent.futures
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lowrankpen import cli, simlab, theory
from lowrankpen.fileio import read_dense_matrix, write_dense_matrix, write_triplets

from conftest import random_low_rank


def run_cli(*args):
    return cli.main([str(a) for a in args])


DROP = object()  # an override that removes the key


def minimal_config(tmp_path, **overrides):
    cfg = {
        "model": "completion",
        "m1": 8,
        "m2": 8,
        "r": 2,
        "sigma": 0.1,
        "spectrum_rule": {"kind": "all_above_nu", "margin": 5.0},
        "n_grid": [200],
        "penalties": [{"family": "scad", "b": 129.0}],
        "repeats": 1,
        "base_seed": 7,
        "solver": {"max_iter": 1200, "tol": 1e-7},
    }
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not DROP}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def strip_runtime(text):
    # wall-clock column is execution metadata; all numeric output is stable
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def test_simulate_minimal_config(tmp_path, capsys):
    config = minimal_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate", config, "--out-dir", out, "--jobs", 1) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one data row
    meta = json.loads((out / "meta.json").read_text())
    assert meta["spec"]["base_seed"] == 7
    assert "simulate: 1 trials" in capsys.readouterr().out


def test_simulate_deterministic_across_runs_and_jobs(tmp_path):
    config = minimal_config(tmp_path, repeats=2)
    out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    assert run_cli("simulate", config, "--out-dir", out1, "--jobs", 1) == 0
    assert run_cli("simulate", config, "--out-dir", out2, "--jobs", 1) == 0
    assert run_cli("simulate", config, "--out-dir", out3, "--jobs", 2) == 0
    text1 = (out1 / "results.csv").read_text()
    assert strip_runtime(text1) == strip_runtime((out2 / "results.csv").read_text())
    assert strip_runtime(text1) == strip_runtime((out3 / "results.csv").read_text())

    meta1 = json.loads((out1 / "meta.json").read_text())
    meta2 = json.loads((out2 / "meta.json").read_text())
    meta1.pop("run")
    meta2.pop("run")
    assert meta1 == meta2


def test_simulate_rejects_r_larger_than_dimensions(tmp_path, capsys):
    config = minimal_config(tmp_path, r=9)
    assert run_cli("simulate", config, "--out-dir", tmp_path / "x") == 2
    assert "'r'" in capsys.readouterr().err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    config = minimal_config(tmp_path, typo_knob=1)
    assert run_cli("simulate", config, "--out-dir", tmp_path / "x") == 2
    assert "typo_knob" in capsys.readouterr().err


def test_simulate_missing_config_is_io_error(tmp_path):
    assert run_cli("simulate", tmp_path / "nope.json", "--out-dir", tmp_path) == 3


def test_simulate_accepts_rescaled_grid(tmp_path):
    config = minimal_config(tmp_path)
    cfg = json.loads(config.read_text())
    del cfg["n_grid"]
    cfg["N_grid"] = [3.0]
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("simulate", config, "--out-dir", out, "--jobs", 1) == 0
    header, row = (out / "results.csv").read_text().splitlines()
    n_idx = header.split(",").index("n")
    expected = round(3.0 * 2 * 8 * np.log(8))
    assert int(row.split(",")[n_idx]) == expected


def test_simulate_rejects_overflowing_rescaled_grid(tmp_path, capsys):
    config = minimal_config(tmp_path)
    cfg = json.loads(config.read_text())
    del cfg["n_grid"]
    cfg["N_grid"] = ["PLACEHOLDER"]
    # 1e400 parses as an infinite float; json.dumps cannot write it literally
    config.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', "1e400"))
    assert run_cli("simulate", config, "--out-dir", tmp_path / "x") == 2
    assert "N_grid" in capsys.readouterr().err


def test_simulate_rejects_fractional_max_iter_before_running(tmp_path, capsys):
    config = minimal_config(tmp_path, solver={"max_iter": 5.5})
    out = tmp_path / "x"
    assert run_cli("simulate", config, "--out-dir", out) == 2
    assert "max_iter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,overrides",
    [
        ("sigma", {"sigma": math.nan}),
        ("margin", {"spectrum_rule": {"kind": "all_above_nu", "margin": math.nan}}),
        ("margin", {"spectrum_rule": {"kind": "all_above_nu", "margin": [1]}}),
        ("margin", {"spectrum_rule": {"kind": "all_above_nu", "margin": -3}}),
        ("b", {"penalties": [{"family": "scad", "b": [3.7]}]}),
        ("step_policy", {"solver": {"step_policy": "inverse_power"}}),
        ("r1", {"spectrum_rule": {"kind": "mixed", "r1": -1, "r2": 3, "low_value": 0.1}}),
        ("low_value", {"spectrum_rule": {"kind": "mixed", "r1": 1, "r2": 1, "low_value": -0.5}}),
        ("low_value", {"spectrum_rule": {"kind": "mixed", "r1": 1, "r2": 1, "low_value": 0}}),
        ("n_grid", {"n_grid": [200.7]}),
        ("n_grid", {"n_grid": [True]}),
        ("n_grid", {"n_grid": ["200"]}),
        ("n_grid", {"n_grid": [0]}),
        ("sigma", {"sigma": 5e-324}),  # lambda underflows to 0
        ("sigma", {"sigma": 1e308}),  # lambda overflows
        ("N_grid", {"n_grid": DROP, "N_grid": [True]}),
        ("lambda_rule", {"lambda_rule": "x"}),
        ("model", {"model": "x"}),
        ("penalties", {"penalties": []}),
        ("penalties", {"penalties": [{"family": "nuclear"}]}),  # b defaults to 0
        ("spectrum_rule", {"spectrum_rule": {"kind": "mixed", "r1": 1, "r2": 2,
                                             "low_value": 0.1}}),
        ("N_grid", {"n_grid": DROP, "N_grid": [0.001]}),  # rounds to n = 0
        # nu = b*lambda is about 0.93 here
        ("spectrum_rule", {"spectrum_rule": {"kind": "mixed", "r1": 1, "r2": 1,
                                             "low_value": 50}}),
        ("spectrum_rule", {"spectrum_rule": {"kind": "mixed", "r1": 1, "r2": 1,
                                             "low_value": 0.95}}),
        ("tol", {"solver": {"tol": -1e-7}}),
        ("eta", {"solver": {"eta": 1.0}}),  # the step is always 1/L
        ("alpha_star", {"solver": {"alpha_star": 1.0}}),  # the fit takes no box bound
        ("rank_tol_rel", {"solver": {"rank_tol_rel": 1e-4}}),  # the rank cutoff is fixed
        ("max_iter", {"solver": {"max_iter": 0}}),
        ("warm_start", {"solver": {"warm_start": "x"}}),
        ("warm_start", {"solver": {"warm_start": None}}),
        ("warm_start", {"solver": {"warm_start": "zero"}}),  # fit picks the start
        ("probe_directions", {"probe_directions": 3}),  # a fixed 200 per trial
        ("c", {"c": 2.0}),  # lambda always takes the rule constant 2
        ("out_dir", {"out_dir": "runs"}),  # the output directory is --out-dir
        ("m2", {"m1": 5, "m2": 0}),
        # log max(m1, m2) = 0 zeroes the completion lambda and sample-size unit
        ("m1", {"m1": 1, "m2": 1, "r": 1}),
        ("m1", {"m1": 1, "m2": 1, "r": 1, "n_grid": DROP, "N_grid": [3.0]}),
    ],
    ids=["sigma-nan", "margin-nan", "margin-list", "margin-negative", "b-list",
         "step_policy", "r1-negative", "low_value-negative", "low_value-zero",
         "n_grid-float", "n_grid-bool", "n_grid-string", "n_grid-zero",
         "sigma-underflow", "sigma-overflow", "N_grid-bool", "lambda_rule-unknown",
         "model-unknown", "penalties-empty", "penalties-zero-b",
         "spectrum_rule-rank-sum", "N_grid-below-one", "low_value-above-nu",
         "low_value-just-above-nu", "tol-negative", "eta-unknown",
         "alpha_star-unknown", "rank_tol_rel-unknown", "max_iter-zero",
         "warm_start-unknown", "warm_start-null", "warm_start-zero",
         "probe_directions-unknown", "c-unknown", "out_dir-unknown", "m2-zero",
         "m1-one-by-one", "m1-one-by-one-rescaled"],
)
def test_simulate_rejects_invalid_value_naming_its_key(tmp_path, capsys, key, overrides):
    config = minimal_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert run_cli("simulate", config, "--out-dir", out, "--jobs", 1) == 2
    assert f"key '{key}':" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    # sigma = 1e307 keeps lambda finite, but not b * lambda * (1 + margin)
    [{"sigma": 1e307}, {"spectrum_rule": {"kind": "all_above_nu", "margin": 1e308}},
     {"sigma": 1e307, "penalties": [{"family": "scad", "b": 1000.0}],
      "spectrum_rule": {"kind": "mixed", "r1": 1, "r2": 1, "low_value": 0.1}}],
    ids=["sigma", "margin", "mixed"],
)
def test_simulate_overflowing_truth_scale_is_invalid_input(tmp_path, capsys, overrides):
    config = minimal_config(tmp_path, **overrides)
    assert run_cli("simulate", config, "--out-dir", tmp_path / "x", "--jobs", 1) == 2
    assert "overflow" in capsys.readouterr().err


def test_simulate_mixed_spectrum_echoes_its_rule(tmp_path):
    rule = {"kind": "mixed", "r1": 1, "r2": 1, "low_value": 0.01}
    config = minimal_config(tmp_path, spectrum_rule=rule)
    out = tmp_path / "out"
    assert run_cli("simulate", config, "--out-dir", out, "--jobs", 1) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["spec"]["spectrum_rule"] == rule
    header, row = (out / "results.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["r"] == "2"


def test_simulate_requires_out_dir(tmp_path, capsys, monkeypatch):
    config = minimal_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", config, "--jobs", 1)
    assert exc.value.code == 2
    assert "--out-dir" in capsys.readouterr().err
    # an empty path is rejected before the grid runs
    monkeypatch.setattr(cli.simlab, "run_grid", None)
    assert run_cli("simulate", config, "--out-dir", "", "--jobs", 1) == 2
    assert "'--out-dir': must be a nonempty path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def write_small_triplets(tmp_path):
    src = tmp_path / "t.csv"
    write_triplets(src, np.array([[0, 0, 1.0], [1, 1, 2.0], [2, 0, 1.5], [0, 2, 2.5]]))
    return src


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_c_flag_is_a_usage_error(tmp_path, capsys, command):
    # lambda is resolved from --sigma at the rule constant 2
    src = write_small_triplets(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, src, tmp_path / "out", "--sigma", 0.1, "--c", 2)
    assert exc.value.code == 2
    assert "--c" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_sigma_flag_whose_lambda_overflows_names_it(tmp_path, capsys, command):
    src = write_small_triplets(tmp_path)
    assert run_cli(command, src, tmp_path / "out", "--sigma", 1e308) == 2
    err = capsys.readouterr().err
    assert "key '--sigma': must give a finite positive lambda, got lambda = inf" in err
    assert "--c" not in err
    assert list(tmp_path.iterdir()) == [src]


def test_fit_sigma_on_a_one_by_one_shape_names_it(tmp_path, capsys):
    # log max(m1, m2) = 0 zeroes the completion lambda rule, whatever sigma is
    src = tmp_path / "t.csv"
    write_triplets(src, np.array([[0, 0, 1.0], [0, 0, 1.2]]))
    assert run_cli("fit", src, tmp_path / "out", "--sigma", 0.1) == 2
    err = capsys.readouterr().err
    assert "m1 and m2" in err and "'--sigma'" not in err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("flag,value", [("--m1", 0), ("--m1", -3), ("--m2", 0), ("--m2", -3)])
def test_shape_flag_below_one_names_it(tmp_path, capsys, command, flag, value):
    src = write_small_triplets(tmp_path)
    assert run_cli(command, src, tmp_path / "out", "--lambda", 0.1, f"{flag}={value}") == 2
    assert f"'{flag}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize(
    "argv",
    [["simulate", "config.json", "--out-dir", "out", "--jobs=--"], ["fit", "t.csv", "out", "--lambda=--"],
     ["evaluate", "t.csv", "out.json", "--penalty=--"]],
    ids=["jobs", "lambda", "penalty"],
)
def test_double_dash_flag_value_is_a_usage_error(capsys, argv):
    # argparse would hand these on as an empty list
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "'--' is not a value" in capsys.readouterr().err


def test_fit_takes_no_seed_flag(tmp_path, capsys):
    src = write_small_triplets(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", src, tmp_path / "out", "--lambda", 0.1, "--seed", 3)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_alpha_star_flag_is_a_usage_error(tmp_path, capsys, command):
    src = write_small_triplets(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, src, tmp_path / "out", "--lambda", 0.1, "--alpha-star", 1)
    assert exc.value.code == 2
    assert "--alpha-star" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_zero_warm_start_flag_is_a_usage_error(tmp_path, capsys, command):
    src = write_small_triplets(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, src, tmp_path / "out", "--lambda", 0.1, "--warm-start", "zero")
    assert exc.value.code == 2
    assert "--warm-start" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_rank_tol_flag_is_a_usage_error(tmp_path, capsys, command):
    src = write_small_triplets(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, src, tmp_path / "out", "--lambda", 0.1, "--rank-tol", 1e-4)
    assert exc.value.code == 2
    assert "--rank-tol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("sigma,sigma_eff", [(0.3, 0.3), (0.0, simlab.SIGMA_FLOOR)])
def test_fit_resolves_lambda_from_sigma(tmp_path, sigma, sigma_eff):
    src = write_small_triplets(tmp_path)
    assert run_cli("fit", src, tmp_path / "out", "--sigma", sigma) == 0
    doc = json.loads((tmp_path / "out.fit.json").read_text())
    assert doc["lambda"] == theory.lambda_completion(sigma_eff, 3, 3, 4)


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_non_finite_sigma_flag_is_invalid_input(tmp_path, capsys, command):
    src = tmp_path / "t.csv"
    write_triplets(src, np.array([[0, 0, 1.0], [1, 1, 2.0], [2, 0, 1.5], [0, 2, 2.5]]))
    out = tmp_path / "out"
    assert run_cli(command, src, out, "--sigma", "nan") == 2
    assert "sigma" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("value", ["-1", "inf"])
def test_invalid_sigma_flag_names_it(tmp_path, capsys, command, value):
    src = write_small_triplets(tmp_path)
    assert run_cli(command, src, tmp_path / "out", f"--sigma={value}") == 2
    assert "--sigma" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


def test_oracle_rule_without_curvature_names_lambda_rule(tmp_path, capsys):
    # one sensing draw curves one direction of the 4-dim tangent space: kappa_hat is 0
    config = minimal_config(
        tmp_path, model="sensing", m1=2, m2=2, r=2, n_grid=[1], lambda_rule="oracle"
    )
    out = tmp_path / "x"
    assert run_cli("simulate", config, "--out-dir", out, "--jobs", 1) == 2
    err = capsys.readouterr().err
    assert "lambda_rule" in err and "n = 1" in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,layout", [("fit", "triplets"), ("fit", "dense"),
                                            ("evaluate", "triplets")])
def test_non_finite_file_value_names_its_line(tmp_path, capsys, token, command, layout):
    src = tmp_path / "in.csv"
    if layout == "dense":
        src.write_text(f"1.0,2.0,0.5\n0.5,1.0,2.0\n3.0,{token},1.5\n")
    else:
        src.write_text(f"j,k,value\n0,0,1.0\n1,1,{token}\n2,0,1.5\n0,2,2.5\n")
    out = tmp_path / "out"
    assert run_cli(command, src, out, "--sigma", 0.1) == 2
    err = capsys.readouterr().err
    assert "line 3: values must be finite" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [src]


ALL_HUGE = [[0, 0, 1e308], [1, 1, -1e308], [2, 0, 1e308], [0, 2, -1e308]]
# the fit stops on a finite objective, but its fixed-point residual overflows
ONE_HUGE = [[j, k, 1e308 if (j, k) == (1, 0) else 0.5 * j - 0.3 * k]
            for j in range(5) for k in range(4)]


@pytest.mark.parametrize(
    "command,triplets,flags",
    [("fit", ALL_HUGE, []), ("evaluate", ALL_HUGE, []), ("fit", ONE_HUGE, []),
     ("evaluate", ONE_HUGE, ["--seed", 1])],  # seed 1 holds the huge value out
    ids=["fit-diverges", "evaluate-diverges", "fit-residual-overflows",
         "evaluate-rmse-overflows"],
)
def test_overflowing_file_values_are_invalid_input(tmp_path, capsys, command, triplets, flags):
    src = tmp_path / "in.csv"
    write_triplets(src, np.array(triplets))
    out = tmp_path / "out"
    assert run_cli(command, src, out, "--sigma", 0.2, "--max-iter", 30, *flags) == 2
    err = capsys.readouterr().err
    assert "overflowed on the input values" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("jobs", [0, -1])
def test_simulate_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "x"
    assert run_cli("simulate", minimal_config(tmp_path), "--out-dir", out, "--jobs", jobs) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_starts_no_more_workers_than_trials(tmp_path, monkeypatch):
    # a pool stand-in that records its size and maps serially: no process
    # starts; run_grid imports the pool class when it needs one, so the
    # stand-in replaces it in concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = minimal_config(tmp_path, repeats=2)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run_cli("simulate", config, "--out-dir", serial, "--jobs", 1) == 0
    assert run_cli("simulate", config, "--out-dir", pooled, "--jobs", 64) == 0
    assert sizes == [2]
    assert strip_runtime((serial / "results.csv").read_text()) == strip_runtime(
        (pooled / "results.csv").read_text()
    )


def test_cli_import_leaves_the_process_pool_unloaded():
    # run_grid imports the pool only for more than one worker, so a CLI
    # start (--version included) does not load multiprocessing
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import lowrankpen.cli; "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_simulate_resource_guard_counts_design_and_gram(tmp_path, monkeypatch):
    # 200 x 200 sensing: the 40000^2-entry Gram matrix alone exceeds the guard
    def no_trials(*args, **kwargs):
        raise AssertionError("the guard must trip before any trial runs")

    monkeypatch.setattr(cli.simlab, "run_grid", no_trials)
    config = minimal_config(tmp_path, model="sensing", m1=200, m2=200, n_grid=[10])
    out = tmp_path / "out"
    assert run_cli("simulate", config, "--out-dir", out, "--jobs", 1) == 4
    assert not out.exists()


def test_simulate_resource_guard_counts_completion_samples(tmp_path, monkeypatch):
    # 8 x 8 completion: the iterate is tiny, the 10**12 index pairs are not
    def no_trials(*args, **kwargs):
        raise AssertionError("the guard must trip before any trial runs")

    monkeypatch.setattr(cli.simlab, "run_grid", no_trials)
    config = minimal_config(tmp_path, n_grid=[10**12])
    out = tmp_path / "out"
    assert run_cli("simulate", config, "--out-dir", out, "--jobs", 1) == 4
    assert not out.exists()


def test_fit_dense_noiseless_recovers_input(tmp_path):
    rng = np.random.default_rng(1)
    theta, _, _ = random_low_rank(rng, 3, 3, [2.0, 1.0])
    src = tmp_path / "theta.csv"
    write_dense_matrix(src, theta)
    prefix = tmp_path / "fit"
    code = run_cli("fit", src, prefix, "--penalty", "scad", "--lambda", 1e-8, "--b", 3.7)
    assert code == 0
    recovered = read_dense_matrix(tmp_path / "fit.theta.csv")
    assert np.abs(recovered - theta).max() <= 1e-6
    doc = json.loads((tmp_path / "fit.fit.json").read_text())
    assert doc["converged"] is True
    assert doc["lambda"] == pytest.approx(1e-8)


def test_fit_auto_reads_an_integer_matrix_as_triplets(tmp_path):
    # a headerless first row that reads as two integers and a number makes
    # the file triplets, so such a dense matrix needs --format dense
    src = tmp_path / "m.csv"
    src.write_text("1,2,3\n4,5,6\n7,8,9\n")
    assert run_cli("fit", src, tmp_path / "auto", "--lambda", 0.01) == 0
    assert read_dense_matrix(tmp_path / "auto.theta.csv").shape == (8, 9)
    assert run_cli("fit", src, tmp_path / "dense", "--lambda", 0.01, "--format", "dense") == 0
    assert read_dense_matrix(tmp_path / "dense.theta.csv").shape == (3, 3)


def test_fit_json_echoes_b_and_reports_the_step(tmp_path):
    src = tmp_path / "t.csv"
    src.write_text("j,k,value\n0,0,1.0\n1,1,2.0\n0,1,0.5\n")
    assert run_cli("fit", src, tmp_path / "out", "--lambda", 0.01, "--b", 4.5) == 0
    doc = json.loads((tmp_path / "out.fit.json").read_text())
    assert (doc["penalty"], doc["lambda"], doc["b"]) == ("scad", 0.01, 4.5)
    assert doc["eta"] == 3.0  # 1/L with L = max(count)/n = 1/3
    assert isinstance(doc["restarts"], int) and doc["restarts"] >= 0


@pytest.mark.parametrize("family,b", [("scad", 4.5), ("mcp", 4.5), ("nuclear", None)])
def test_fit_json_records_b_only_for_the_folded_concave_penalties(tmp_path, family, b):
    # the nuclear norm reads no b, so fit.json records none for it
    src = tmp_path / "t.csv"
    src.write_text("j,k,value\n0,0,1.0\n1,1,2.0\n0,1,0.5\n")
    assert run_cli("fit", src, tmp_path / "out", "--penalty", family, "--lambda", 0.01,
                   "--b", 4.5) == 0
    doc = json.loads((tmp_path / "out.fit.json").read_text())
    assert (doc["penalty"], doc["b"]) == (family, b)


def test_fit_rejects_infinite_b(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("j,k,value\n0,0,1.0\n1,1,2.0\n")
    code = run_cli("fit", src, tmp_path / "out", "--penalty", "scad", "--lambda", 0.1, "--b", "inf")
    assert code == 2
    assert "b must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out.fit.json").exists()


def test_simulate_rejects_infinite_b(tmp_path, capsys):
    # json.dumps writes the infinite b as the literal Infinity, which json.load accepts
    config = minimal_config(tmp_path, penalties=[{"family": "scad", "b": math.inf}])
    assert "Infinity" in config.read_text()
    out = tmp_path / "x"
    assert run_cli("simulate", config, "--out-dir", out) == 2
    assert "b must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_fit_triplets_out_of_range_index(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("j,k,value\n0,0,1.0\n5,1,2.0\n")
    code = run_cli(
        "fit", src, tmp_path / "out", "--m1", 3, "--m2", 3, "--lambda", 0.1
    )
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_triplet_index_outside_m1_names_its_line(tmp_path, capsys, command):
    # only --m1 is given; m2 comes from the largest column index
    src = tmp_path / "t.csv"
    src.write_text("j,k,value\n0,0,1.0\n1,2,2.0\n4,1,3.0\n2,2,4.0\n")
    out = tmp_path / ("out" if command == "fit" else "out.json")
    assert run_cli(command, src, out, "--m1", 3, "--lambda", 0.1) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "(4,1) outside 3x3" in err
    # an index past int64 is checked as read, not wrapped by a cast
    src.write_text("j,k,value\n0,0,1.0\n100000000000000000000,1,3.0\n2,2,4.0\n")
    assert run_cli(command, src, out, "--m1", 5, "--m2", 5, "--lambda", 0.1) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "(100000000000000000000,1) outside 5x5" in err
    # past the float range, the reader names the line
    src.write_text(f"j,k,value\n0,0,1.0\n{10**400},1,3.0\n")
    assert run_cli(command, src, out, "--m1", 5, "--m2", 5, "--lambda", 0.1) == 2
    assert "line 3" in capsys.readouterr().err
    # without --m1 the shape it implies trips the cell guard, as 2**53 + 1 does
    for huge in (10**20, 2**53 + 1):
        src.write_text(f"j,k,value\n0,0,1.0\n{huge},1,3.0\n")
        assert run_cli(command, src, out, "--lambda", 0.1) == 4


def test_fit_resource_guard(tmp_path):
    src = tmp_path / "t.csv"
    src.write_text("0,0,1.0\n")
    code = run_cli(
        "fit", src, tmp_path / "out", "--m1", 20000, "--m2", 20000, "--lambda", 0.1
    )
    assert code == 4


def test_fit_scad_and_nuclear_differ_on_noisy_instance(tmp_path):
    rng = np.random.default_rng(2)
    theta, _, _ = random_low_rank(rng, 12, 12, [4.0, 2.0, 1.0])
    noisy = theta + 0.3 * rng.standard_normal(theta.shape)
    src = tmp_path / "noisy.csv"
    write_dense_matrix(src, noisy)
    assert run_cli("fit", src, tmp_path / "scad", "--penalty", "scad",
                   "--lambda", 0.01, "--b", 3.7) == 0
    assert run_cli("fit", src, tmp_path / "nuc", "--penalty", "nuclear",
                   "--lambda", 0.01) == 0
    scad = json.loads((tmp_path / "scad.fit.json").read_text())["spectrum"]
    nuc = json.loads((tmp_path / "nuc.fit.json").read_text())["spectrum"]
    assert scad != nuc
    # nuclear shrinks the leading singular value; the folded penalty does not
    assert scad[0] > nuc[0]


def test_evaluate_rank_one_synthetic(tmp_path):
    # 60% of cells observed, half of those held out; the train share must
    # stay above the completion recoverability threshold, hence m = 40
    rng = np.random.default_rng(3)
    m = 40
    u = rng.standard_normal(m)
    v = rng.standard_normal(m)
    theta = np.outer(u, v)
    scale = float(np.abs(theta).max())
    jj, kk = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    cells = np.column_stack([jj.ravel(), kk.ravel()])
    keep = rng.random(cells.shape[0]) < 0.6
    triplets = np.column_stack([cells[keep], theta[cells[keep, 0], cells[keep, 1]]])
    src = tmp_path / "ratings.csv"
    write_triplets(src, triplets)
    out = tmp_path / "eval.json"
    flags = [
        "--penalty", "scad", "--lambda", 2e-3, "--b", 3.7,
        "--m1", m, "--m2", m, "--seed", 5, "--max-iter", 2500, "--tol", 1e-9,
    ]
    assert run_cli("evaluate", src, out, *flags) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"rmse", "rank_hat", "lambda", "seed"}
    assert doc["rmse"] <= 0.05 * scale
    assert doc["seed"] == 5

    # fixed seed reproducibility
    out2 = tmp_path / "eval2.json"
    run_cli("evaluate", src, out2, *flags)
    assert json.loads(out2.read_text()) == doc


def test_evaluate_tiny_test_side_runs(tmp_path):
    rng = np.random.default_rng(6)
    triplets = np.column_stack(
        [rng.integers(0, 12, 1000), rng.integers(0, 12, 1000), rng.standard_normal(1000)]
    )
    src = tmp_path / "t.csv"
    write_triplets(src, triplets)
    out = tmp_path / "o.json"
    code = run_cli(
        "evaluate", src, out, "--holdout-fraction", 0.999, "--lambda", 0.05,
        "--max-iter", 300,
    )
    assert code == 0
    assert np.isfinite(json.loads(out.read_text())["rmse"])


def test_evaluate_empty_test_split(tmp_path):
    src = tmp_path / "t.csv"
    write_triplets(src, np.array([[0, 0, 1.0], [1, 1, 2.0]]))
    code = run_cli("evaluate", src, tmp_path / "o.json",
                   "--holdout-fraction", 0.9, "--lambda", 0.1)
    assert code == 2


def test_evaluate_requires_lambda_or_sigma(tmp_path, capsys):
    src = tmp_path / "t.csv"
    write_triplets(src, np.array([[0, 0, 1.0], [1, 1, 2.0], [2, 0, 1.5], [0, 2, 2.5]]))
    code = run_cli("evaluate", src, tmp_path / "o.json")
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def sparse_row_ratings(tmp_path):
    """A 30 x 30 rank-3 triplet file with about 70% of the cells observed,
    except row 0, which holds one: fewer than the fitted rank, so its
    alternating least-squares Gram is singular.  The SCAD flags put every
    true singular value above b * lambda, with eta * zeta_minus < 1."""
    rng = np.random.default_rng(8)
    m = 30
    b = 1.0 + 2.0 * m * m
    theta, _, _ = random_low_rank(rng, m, m, [3.0, 2.0, 1.5])
    cells = np.array([(j, k) for j in range(1, m) for k in range(m)])
    cells = np.vstack([[[0, 4]], cells[rng.random(len(cells)) < 0.7]])
    values = theta[cells[:, 0], cells[:, 1]] + 0.01 * rng.standard_normal(len(cells))
    src = tmp_path / "sparse.csv"
    write_triplets(src, np.column_stack([cells, values]))
    return src, ["--penalty", "scad", "--lambda", 1.5 / (2.0 * b), "--b", b]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_row_observed_fewer_times_than_the_rank_exits_0(tmp_path, command):
    # the finisher declines on a singular Gram instead of raising
    # LinAlgError, a ValueError the CLI would report as invalid input
    src, flags = sparse_row_ratings(tmp_path)
    out = tmp_path / ("fit" if command == "fit" else "eval.json")
    assert run_cli(command, src, out, *flags) == 0
    if command == "fit":
        doc = json.loads((tmp_path / "fit.fit.json").read_text())
        assert doc["rank_hat"] == 3 and doc["converged"] and doc["finish_sweeps"] == 0
    else:
        assert json.loads(out.read_text())["rank_hat"] == 3


def test_fit_nuclear_is_finished_and_certified(tmp_path):
    # a nuclear-norm completion fit ends with the finisher: fit.json counts
    # its sweeps and reports a certificate within tol * max(1, ||Theta||_F)
    rng = np.random.default_rng(8)
    m = 30
    theta, _, _ = random_low_rank(rng, m, m, [3.0, 2.0, 1.5])
    cells = np.array([(j, k) for j in range(m) for k in range(m)])
    cells = cells[rng.random(len(cells)) < 0.7]
    values = theta[cells[:, 0], cells[:, 1]] + 0.01 * rng.standard_normal(len(cells))
    src = tmp_path / "ratings.csv"
    write_triplets(src, np.column_stack([cells, values]))
    assert run_cli("fit", src, tmp_path / "nuc", "--penalty", "nuclear", "--lambda", 1e-3) == 0
    doc = json.loads((tmp_path / "nuc.fit.json").read_text())
    theta_hat = read_dense_matrix(tmp_path / "nuc.theta.csv")
    assert doc["finish_sweeps"] > 0 and doc["converged"] and doc["rank_hat"] == 3
    bound = 1e-7 * max(1.0, np.linalg.norm(theta_hat))  # the default --tol
    assert doc["fixed_point_residual"] <= bound


def test_default_b_recovers_the_rank_and_beats_the_nuclear_norm(tmp_path):
    # omitting --b gives b = 1 + 2 m1 m2, so the SCAD prox stays convex at
    # the step eta = n (16,000 distinct cells of a 200 x 200 file): the fit
    # keeps the true rank and predicts better than the nuclear norm at the
    # same lambda (at b = 3.7 it kept about 196 values, RMSE about 1.1)
    rng = np.random.default_rng(5)
    m = 200
    theta, _, _ = random_low_rank(rng, m, m, np.linspace(120.0, 60.0, 5))
    flat = np.sort(rng.choice(m * m, size=16000, replace=False))
    cells = np.column_stack(np.divmod(flat, m))
    values = theta[cells[:, 0], cells[:, 1]] + 0.5 * rng.standard_normal(len(cells))
    src = tmp_path / "ratings.csv"
    write_triplets(src, np.column_stack([cells, values]))
    flags = ["--holdout-fraction", 0.8, "--lambda", 6e-4, "--seed", 5]
    assert run_cli("evaluate", src, tmp_path / "scad.json", *flags) == 0
    assert run_cli("evaluate", src, tmp_path / "nuc.json", *flags, "--penalty", "nuclear") == 0
    scad, nuclear = (json.loads((tmp_path / name).read_text()) for name in ("scad.json", "nuc.json"))
    assert scad["rank_hat"] == 5
    assert scad["rmse"] < nuclear["rmse"]
