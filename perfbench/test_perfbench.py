"""Tests of the benchmark harness itself: span arithmetic, patch restoration,
input generation and the output checks."""

import json
import types

import numpy as np
import pytest

import lowrankpen
from lowrankpen import cli, simlab
from lowrankpen.solver import SolverConfig

import tracer
import workloads

TINY = {
    "model": "completion", "m1": 8, "m2": 8, "r": 2, "sigma": 0.1,
    "spectrum_rule": {"kind": "all_above_nu", "margin": 0.2},
    "n_grid": [40], "penalties": [{"family": "scad", "b": 3.7}, {"family": "nuclear", "b": 3.7}],
    "repeats": 1, "solver": {"warm_start": "nuclear"},
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    design = types.SimpleNamespace(n=3, m1=2, m2=2)

    def tick(seconds):
        clock.now += seconds

    forward = t.wrap("operators.apply_forward", lambda d: tick(0.25))

    def gradient():
        tick(0.5)
        forward(design)
        tick(0.5)

    loss_gradient = t.wrap("operators.loss_gradient", gradient)

    def fit_body(warm):
        tick(1.0 if warm else 2.0)
        if warm:
            fit(warm=False)
            tick(0.5)
        else:
            loss_gradient()
        return types.SimpleNamespace(iterations=7 if warm else 3, converged=True,
                                     fixed_point_residual=1e-6)

    fit = t.wrap("solver.fit", fit_body)
    fit(warm=True)

    assert t.spans[("operators.apply_forward", "operators.loss_gradient")] == [1, 0.25, 0.25]
    assert t.spans[("operators.loss_gradient", "solver.fit")] == [1, 1.25, 1.0]
    assert t.spans[("solver.fit", "solver.fit")] == [1, 3.25, 2.0]  # the warm start
    assert t.spans[("solver.fit", None)] == [1, 4.75, 1.5]
    assert t.self_s("solver.fit") == 3.5
    values = tracer.layer_values(t)
    assert values["solver.fit.iters"] == 7
    assert values["solver.fit.warm_iters"] == 3
    assert values["operators.apply_forward.bytes_computed"] == 3 * 2 * 2 * 8
    assert not t._stack


def _bindings():
    import sys

    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "lowrankpen" or name.startswith("lowrankpen.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_patches_importers_and_restores_everything(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, base_seed=3)))
    before = _bindings()
    t = tracer.Tracer()
    with tracer.installed(t):
        assert lowrankpen.simlab.fit.__wrapped__ is before[("lowrankpen.solver", "fit")]
        assert lowrankpen.solver.scalar_prox.__wrapped__ is before[("lowrankpen.penalty", "scalar_prox")]
        code = cli.main(["simulate", str(config), "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    after = _bindings()
    assert code == 0
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    values = tracer.layer_values(t)
    assert values["simlab.run_trial.calls"] == 2
    assert values["solver.fit.warm_iters"] > 0
    assert values["penalty.scalar_prox.calls"] > 0
    assert values["cli.main.nonzero_exit"] == 0
    derived = {"simlab.run_grid.parallel_efficiency", "trace.overhead_s",
               "trace.traced_wall_s", "trace.untraced_wall_s"}
    assert set(values) | derived == set(tracer.LAYER_METRICS)


def test_patches_are_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.Tracer()):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_ratings_file_is_byte_identical_for_a_seed(tmp_path):
    w = workloads.RatingsWorkload()
    theta_a = w.generate(tmp_path / "a.csv", 3)
    theta_b = w.generate(tmp_path / "b.csv", 3)
    w.generate(tmp_path / "c.csv", 4)
    data = (tmp_path / "a.csv").read_bytes()
    assert data == (tmp_path / "b.csv").read_bytes()
    assert data != (tmp_path / "c.csv").read_bytes()
    assert np.array_equal(theta_a, theta_b)
    cells = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
    assert cells.shape == (w.cells, 3)
    assert len({(j, k) for j, k in cells[:, :2].tolist()}) == w.cells
    assert np.linalg.matrix_rank(theta_a) == w.rank


@pytest.mark.parametrize("model, n", [("completion", 40), ("sensing", 30)])
def test_replayed_truth_norm_matches_the_trial(model, n):
    cfg = dict(TINY, model=model, n_grid=[n], base_seed=11)
    spec = simlab.TrialSpec(
        model=model, m1=8, m2=8, r=2, spectrum_rule=simlab.AllAboveNu(0.2), sigma=0.1,
        n_grid=(n,), penalties=(simlab.PenaltyTemplate("scad", 3.7),), repeats=1,
        base_seed=11, solver=SolverConfig(max_iter=5),
    )
    trial = simlab.run_trial(spec, n, 0, 0)
    replayed = workloads.replay_truth_frob(cfg, n, trial.seed, trial.lam, trial.b)
    assert replayed == pytest.approx(trial.theta_star_frob, rel=1e-12)
    assert trial.seed == workloads.trial_seed(11, n, 0, 0)


def test_simulate_check_accepts_real_output_and_flags_a_bad_row(tmp_path):
    w = workloads.SimulateWorkload("tiny", TINY, default_seed=3, jobs=1)
    inputs = w.prepare(str(tmp_path), 3)
    out = tmp_path / "out"
    assert cli.main(w.commands(inputs, str(out), 1)[0]) == 0
    good = w.check(inputs, str(out), [0])
    assert (good.attempted, good.failed) == (3, 0), good.problems
    assert good.accuracy["rank_recovery_rate"] in (0.0, 0.5, 1.0)
    assert good.accuracy["scad_nuclear_mse_ratio"] > 0

    csv = out / "results.csv"
    header, first, *rest = csv.read_text().splitlines()
    cols = header.split(",")
    runtime = cols.index("runtime_seconds")
    slower = [c if i != runtime else "99.0" for i, c in enumerate(first.split(","))]
    csv.write_text("\n".join([header, ",".join(slower), *rest]) + "\n")
    assert w.check(inputs, str(out), [0]).digest == good.digest

    diverged = [c if cols[i] != "rank_hat" else "-1" for i, c in enumerate(first.split(","))]
    csv.write_text("\n".join([header, ",".join(diverged), *rest]) + "\n")
    bad = w.check(inputs, str(out), [0])
    assert bad.failed == 1 and "diverged" in bad.problems[0]
    assert w.check(inputs, str(out), [2]).failed == 3


def test_rerun_grid_reproduces_the_timed_rows(tmp_path):
    w = workloads.SimulateWorkload("tiny", dict(TINY, repeats=2), default_seed=5, jobs=1)
    inputs = w.prepare(str(tmp_path), 5)
    outcomes = []
    for label, grid in (("timed", inputs), ("rerun", w.rerun_inputs(inputs))):
        out = str(tmp_path / label)
        assert cli.main(w.commands(grid, out, 1)[0]) == 0
        outcomes.append(w.check(grid, out, [0]))
    timed, rerun = outcomes
    assert (timed.failed, rerun.failed) == (0, 0)
    assert len(timed.records) == 4 and len(rerun.records) == 2
    assert all(timed.records[key] == record for key, record in rerun.records.items())
