import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from lowrankpen.simlab import (
    AllAboveNu,
    MixedSpectrum,
    PenaltyTemplate,
    TrialSpec,
    holdout_split,
    raw_sample_size,
    rescale_n,
    rmse,
    run_grid,
    run_trial,
    trial_seed,
    write_meta_json,
    write_trials_csv,
)
from lowrankpen import simlab
from lowrankpen.simlab import CSV_COLUMNS
from lowrankpen.solver import DivergenceError, RankDeficiencyError, SolverConfig


def small_spec(**overrides):
    base = dict(
        model="completion",
        m1=8,
        m2=8,
        r=2,
        spectrum_rule=AllAboveNu(margin=5.0),
        sigma=0.1,
        n_grid=(200,),
        penalties=(PenaltyTemplate("scad", 129.0),),  # b = 1 + 2*m1*m2
        repeats=2,
        base_seed=42,
        solver=SolverConfig(max_iter=1500, tol=1e-8),
    )
    base.update(overrides)
    return TrialSpec(**base)


def test_trial_spec_validation():
    with pytest.raises(ValueError):
        small_spec(r=9)  # r > min(m1, m2)
    with pytest.raises(ValueError):
        small_spec(repeats=0)
    with pytest.raises(ValueError):
        small_spec(n_grid=())
    with pytest.raises(ValueError):
        small_spec(penalties=(PenaltyTemplate("nuclear", 0.0),))
    with pytest.raises(ValueError):
        small_spec(spectrum_rule=MixedSpectrum(r1=1, r2=2, low_value=0.1))
    with pytest.raises(ValueError, match="^sigma must be finite"):
        small_spec(sigma=float("nan"))
    # lambda overflows, then underflows to 0
    for sigma in (1e308, 5e-324):
        with pytest.raises(ValueError, match="^sigma must give a finite positive lambda"):
            small_spec(sigma=sigma)


def test_mixed_low_value_checked_against_every_nu():
    # standard rule: lambda is known up front, so low_value must stay below
    # b*lambda at every n and template before any trial runs; the smallest nu
    # sits at the largest n and the smallest b
    penalties = (PenaltyTemplate("scad", 3.7), PenaltyTemplate("scad", 40.0))
    spec = small_spec(n_grid=(150, 300), penalties=penalties)
    nu = 3.7 * simlab.standard_lambda(spec.model, spec.sigma, spec.m1, spec.m2, 300)
    for low_value, ok in ((0.999 * nu, True), (nu, False), (50.0, False)):
        rule = MixedSpectrum(r1=1, r2=1, low_value=low_value)
        if ok:
            small_spec(n_grid=(150, 300), penalties=penalties, spectrum_rule=rule)
        else:
            with pytest.raises(ValueError, match="^spectrum_rule is mixed and needs low_value"):
                small_spec(n_grid=(150, 300), penalties=penalties, spectrum_rule=rule)
    # oracle rule: lambda needs the trial's probe, so the trial checks it
    oracle = small_spec(lambda_rule="oracle", spectrum_rule=MixedSpectrum(1, 1, 1e6))
    with pytest.raises(ValueError, match="^spectrum_rule is mixed and needs low_value"):
        run_trial(oracle, oracle.n_grid[0], 0, 0)


@pytest.mark.parametrize(
    "fields,key",
    [((-1, 3, 0.1), "r1"), ((2, -1, 0.1), "r2"), ((1, 1, 0.0), "low_value"),
     ((1, 1, -0.5), "low_value"), ((1, 1, float("inf")), "low_value")],
)
def test_mixed_spectrum_validation(fields, key):
    r1, r2, low_value = fields
    with pytest.raises(ValueError, match=f"^{key} must be"):
        MixedSpectrum(r1=r1, r2=r2, low_value=low_value)


def test_rescale_n():
    assert rescale_n("completion", 1000, 5, 40) == pytest.approx(1.3554, abs=2e-4)
    assert rescale_n("sensing", 1000, 10, 20) == pytest.approx(5.0)
    # linear in n
    assert rescale_n("sensing", 2000, 10, 20) == pytest.approx(10.0)
    assert raw_sample_size("completion", 1.3554, 5, 40) == 1000
    assert raw_sample_size("sensing", 5.0, 10, 20) == 1000


def test_rescale_n_rejects_a_one_by_one_completion_shape():
    # log max(m1, m2) = 0 zeroes the completion unit
    with pytest.raises(ValueError, match="^m1 and m2"):
        rescale_n("completion", 5, 1, 1)


def test_trial_seed_is_stable_and_distinct():
    s = trial_seed(7, 100, 0, 3)
    assert s == trial_seed(7, 100, 0, 3)
    assert s != trial_seed(7, 100, 0, 4)
    assert s != trial_seed(7, 100, 1, 3)
    assert s != trial_seed(8, 100, 0, 3)
    assert 0 <= s < 2**64


def test_run_trial_exact_fit_under_full_coverage():
    # sigma = 0, enough draws to cover every cell: the fit is exact
    spec = small_spec(sigma=0.0, n_grid=(400,), solver=SolverConfig(max_iter=4000, tol=1e-12))
    outcome = run_trial(spec, 400, 0, 0)
    assert outcome.converged
    assert outcome.mse <= 1e-10
    assert outcome.rank_correct


def test_run_trial_determinism():
    spec = small_spec()
    a = run_trial(spec, 200, 0, 1)
    b = run_trial(spec, 200, 0, 1)
    assert a.seed == b.seed
    assert a.mse == b.mse
    assert a.frob_err == b.frob_err
    assert a.bound_total == b.bound_total
    assert a.oracle_match == b.oracle_match


def test_run_trial_oracle_rule_completion_branch():
    standard = run_trial(small_spec(), 200, 0, 0)
    oracle = run_trial(small_spec(lambda_rule="oracle"), 200, 0, 0)
    # the exact-recovery rule inflates lambda by (1 + sqrt(r) * rho/kappa)
    assert oracle.lam > standard.lam
    assert oracle.seed == standard.seed


def test_run_trial_mcp_penalty_end_to_end():
    spec = small_spec(penalties=(PenaltyTemplate("mcp", 129.0),))
    outcome = run_trial(spec, 200, 0, 0)
    assert outcome.penalty == "mcp"
    assert outcome.converged
    assert outcome.oracle_match is not None  # nonconvex family gets the comparison


def test_run_trial_mixed_spectrum_rank_counts():
    spec = small_spec(
        spectrum_rule=MixedSpectrum(r1=1, r2=1, low_value=1e-6),
        n_grid=(300,),
    )
    outcome = run_trial(spec, 300, 0, 0)
    assert outcome.r1 == 1 and outcome.r2 == 1
    assert outcome.oracle_match is None  # oracle comparison only for AllAboveNu


def test_run_trial_without_identifiable_oracle_records_no_match(monkeypatch):
    # r = min(m1, m2) from 30 draws of 20 cells: the oracle normal system is singular
    raised = []
    solve_oracle = simlab.solve_oracle

    def recording_solve(obs, sub):
        try:
            return solve_oracle(obs, sub)
        except RankDeficiencyError:
            raised.append(True)
            raise

    monkeypatch.setattr(simlab, "solve_oracle", recording_solve)
    spec = small_spec(
        m1=5, m2=4, r=4, spectrum_rule=AllAboveNu(margin=1.0), n_grid=(30,),
        penalties=(PenaltyTemplate("scad", 41.0),), repeats=1, base_seed=3,
        solver=SolverConfig(max_iter=30, tol=1e-6),
    )
    outcome = run_trial(spec, 30, 0, 0)
    assert raised == [True]
    assert outcome.oracle_match is None


def test_run_trial_with_fewer_observations_than_oracle_coefficients_records_no_match():
    # n = 8 < r^2 = 9: the oracle is unidentified for every design, so the
    # trial records no match, and warns of nothing
    spec = small_spec(
        m1=5, m2=4, r=3, spectrum_rule=AllAboveNu(margin=1.0), n_grid=(8,),
        penalties=(PenaltyTemplate("scad", 41.0),), repeats=1, base_seed=3,
        solver=SolverConfig(max_iter=30, tol=1e-6),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = run_trial(spec, 8, 0, 0)
    assert outcome.oracle_match is None


def test_diverged_trial_record(tmp_path, monkeypatch):
    # both fits blow up
    def diverging(*args):
        raise DivergenceError("objective became non-finite at iteration 1")

    monkeypatch.setattr(simlab, "fit", diverging)
    spec = small_spec(
        n_grid=(150,), base_seed=3, repeats=1,
        penalties=(PenaltyTemplate("scad", 129.0), PenaltyTemplate("nuclear", 129.0)),
    )
    grid = run_grid(spec)
    for outcome, family in zip(grid.trials, ("scad", "nuclear")):
        assert (outcome.penalty, outcome.n, outcome.repeat) == (family, 150, 0)
        assert outcome.seed == trial_seed(3, 150, ("scad", "nuclear").index(family), 0)
        assert outcome.mse == np.inf and outcome.frob_err == np.inf
        assert outcome.rank_hat == -1 and outcome.rank_correct is False
        assert outcome.oracle_match is None
        assert outcome.bound_total is None and outcome.bound_holds is None
        assert outcome.converged is False and outcome.fixed_point_residual == np.inf
        assert outcome.in_cone is False and (outcome.r1, outcome.r2) == (0, 0)
        assert outcome.oracle_gap is None
        assert 0 < outcome.theta_star_frob < np.inf and outcome.tol == spec.solver.tol
        assert outcome.runtime_seconds > 0
    path = tmp_path / "results.csv"
    write_trials_csv(path, grid.trials)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    for row in rows:
        cells = dict(zip(header, row))
        assert [cells[col] for col in CSV_COLUMNS[11:20]] == [
            "inf", "inf", "-1", "false", "", "", "", "false", "inf"
        ]


def test_oracle_gap_is_minus_inf_for_the_nuclear_norm():
    # the nuclear norm is never flat (nu = inf), so the oracle premise never holds
    spec = small_spec(penalties=(PenaltyTemplate("nuclear", 129.0),), repeats=1)
    outcome = run_trial(spec, 200, 0, 0)
    assert outcome.bound_total is not None  # the curvature clears zeta_minus = 0
    assert outcome.oracle_gap == -np.inf


def test_run_grid_single_cell_matches_run_trial():
    spec = small_spec(repeats=1)
    grid = run_grid(spec)
    assert len(grid.trials) == 1
    assert len(grid.aggregate) == 1
    single = run_trial(spec, spec.n_grid[0], 0, 0)
    assert grid.trials[0].mse == single.mse
    assert grid.aggregate[0]["mean_mse"] == pytest.approx(single.mse)


def test_run_grid_mse_decreases_with_n():
    m, r = 20, 3
    spec = TrialSpec(
        model="completion",
        m1=m,
        m2=m,
        r=r,
        spectrum_rule=AllAboveNu(margin=0.5),
        sigma=0.5,
        n_grid=tuple(raw_sample_size("completion", N, r, m) for N in (2, 3, 4, 5)),
        penalties=(PenaltyTemplate("scad", 1.0 + 2.0 * m * m),),
        repeats=5,
        base_seed=3,
    )
    grid = run_grid(spec)
    ns = [a["n"] for a in grid.aggregate]
    mses = [a["mean_mse"] for a in grid.aggregate]
    rho, _ = spearmanr(ns, mses)
    assert rho <= -0.8
    assert len(grid.aggregate) == len(spec.n_grid) * len(spec.penalties)


def test_rank_recovery_rate_nondecreasing_in_n():
    m, r = 10, 2
    spec = TrialSpec(
        model="sensing",
        m1=m,
        m2=m,
        r=r,
        spectrum_rule=AllAboveNu(margin=6.0),
        sigma=0.1,
        n_grid=tuple(raw_sample_size("sensing", N, r, m) for N in (1, 2, 3, 4)),
        penalties=(PenaltyTemplate("scad", 3.7),),
        repeats=8,
        base_seed=11,
    )
    grid = run_grid(spec)
    rates = [a["rank_correct_rate"] for a in grid.aggregate]
    inversions = sum(1 for a, b in zip(rates, rates[1:]) if b < a - 1e-12)
    assert inversions <= 1
    assert rates[-1] >= rates[0]


def test_run_grid_parallel_matches_serial():
    spec = small_spec(repeats=2)
    serial = run_grid(spec, jobs=1)
    parallel = run_grid(spec, jobs=2)
    for a, b in zip(serial.trials, parallel.trials):
        assert a.seed == b.seed
        assert a.mse == b.mse
        assert a.frob_err == b.frob_err


def test_trials_csv_layout_and_determinism(tmp_path):
    spec = small_spec()
    grid = run_grid(spec)
    path1 = tmp_path / "a.csv"
    path2 = tmp_path / "b.csv"
    write_trials_csv(path1, grid.trials)
    write_trials_csv(path2, run_grid(spec).trials)
    lines = path1.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(grid.trials)

    def strip_runtime(text):
        return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())

    assert strip_runtime(path1.read_text()) == strip_runtime(path2.read_text())


def test_meta_json_contents(tmp_path):
    spec = small_spec()
    path = tmp_path / "meta.json"
    write_meta_json(path, spec, 1.23)
    meta = json.loads(path.read_text())
    assert meta["spec"]["m1"] == 8
    assert meta["spec"]["spectrum_rule"]["kind"] == "all_above_nu"
    assert "PCG64" in meta["rng"]
    assert meta["library_version"]
    assert "timestamp" in meta["run"]


def test_outcome_recomputable_from_recorded_seed():
    spec = small_spec()
    grid = run_grid(spec)
    row = grid.trials[1]
    again = run_trial(spec, row.n, 0, row.repeat)
    assert again.seed == row.seed
    assert again.bound_holds == row.bound_holds
    assert again.oracle_match == row.oracle_match
    assert again.frob_err == row.frob_err


def test_holdout_split():
    rng = np.random.default_rng(4)
    triplets = np.column_stack(
        [rng.integers(0, 5, 10), rng.integers(0, 5, 10), rng.standard_normal(10)]
    ).astype(float)
    train, test = holdout_split(triplets, 0.5, rng)
    assert train.shape[0] == 5 and test.shape[0] == 5
    merged = np.vstack([train, test])
    assert sorted(map(tuple, merged)) == sorted(map(tuple, triplets))
    with pytest.raises(ValueError):
        holdout_split(triplets, 0.0, rng)
    with pytest.raises(ValueError):
        holdout_split(triplets[:1], 0.5, rng)  # both sides cannot be nonempty


def test_holdout_split_tiny_test_side():
    rng = np.random.default_rng(5)
    triplets = np.column_stack(
        [rng.integers(0, 40, 1000), rng.integers(0, 40, 1000), rng.standard_normal(1000)]
    ).astype(float)
    train, test = holdout_split(triplets, 0.999, rng)
    assert test.shape[0] == 1
    assert train.shape[0] == 999


def test_rmse():
    predicted = np.array([[1.0, 2.0], [3.0, 4.0]])
    exact = np.array([[0, 0, 1.0], [1, 1, 4.0]])
    assert rmse(predicted, exact) == 0.0
    constant = np.zeros((2, 2))
    twos = np.array([[0, 1, 2.0], [1, 0, 2.0]])
    assert rmse(constant, twos) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        rmse(predicted, np.zeros((0, 3)))


def test_spec_is_picklable_and_frozen():
    import pickle

    spec = small_spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.m1 = 10
