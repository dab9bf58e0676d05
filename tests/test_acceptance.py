"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy simulation grids (criteria 3, 4, 5) are computed once in
session-scoped fixtures; the bound-domination criterion and the
oracle-premise check re-read their trial records.  Every grid is fully
seeded, so the whole module is deterministic.
"""

import math
import time

import numpy as np
import pytest

from lowrankpen.operators import (
    Subspace,
    apply_forward,
    apply_adjoint,
    generate_observations,
    loss_gradient,
    loss_value,
    project_onto,
    sample_completion_design,
    sample_sensing_design,
)
from lowrankpen.penalty import MCP, SCAD, PenaltySpec, check_regularity, scalar_prox
from lowrankpen.simlab import (
    AllAboveNu,
    PenaltyTemplate,
    TrialSpec,
    raw_sample_size,
    run_grid,
    write_trials_csv,
)
from lowrankpen.solver import SolverConfig
from lowrankpen.theory import weyl_gap

from conftest import prox_grid_oracle, random_low_rank
from constants import PROX_ORACLE_TOL


def report(criterion: int, passed: bool, detail: str) -> None:
    import conftest

    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="session")
def recovery_grid():
    """Criterion 3 trials: sensing exact recovery at n = 3rm and 5rm."""
    spec = TrialSpec(
        model="sensing",
        m1=20,
        m2=20,
        r=5,
        spectrum_rule=AllAboveNu(margin=12.0),
        sigma=0.01,
        n_grid=(300, 500),
        penalties=(PenaltyTemplate(SCAD, 3.7),),
        repeats=20,
        base_seed=20260810,
    )
    t0 = time.perf_counter()
    grid = run_grid(spec)
    return grid, time.perf_counter() - t0


@pytest.fixture(scope="session")
def comparison_grid():
    """Criterion 4 trials: completion, folded-concave vs nuclear penalty."""
    m = 40
    r = math.floor(math.log(m) ** 2)  # natural-log convention: r = 13
    b = 1.0 + 2.0 * m * m  # concavity level at half the completion curvature scale
    spec = TrialSpec(
        model="completion",
        m1=m,
        m2=m,
        r=r,
        spectrum_rule=AllAboveNu(margin=0.2),
        sigma=0.5,
        n_grid=tuple(raw_sample_size("completion", N, r, m) for N in (2, 3, 4, 5)),
        penalties=(PenaltyTemplate(SCAD, b), PenaltyTemplate("nuclear", b)),
        repeats=20,
        base_seed=4101,
    )
    t0 = time.perf_counter()
    grid = run_grid(spec)
    return grid, time.perf_counter() - t0, spec


@pytest.fixture(scope="session")
def oracle_grid():
    """Criterion 5 trials: oracle-property regime with the exact-recovery rule.

    The criterion pins m and r but leaves n, b, and the spectrum scale free;
    they are chosen so the theory's premises hold with the true constants
    (n well above m1*m2 keeps the penalized objective strongly convex) and
    the noise-driven cross-subspace correction sits below the match
    tolerance.
    """
    spec = TrialSpec(
        model="sensing",
        m1=20,
        m2=20,
        r=4,
        spectrum_rule=AllAboveNu(margin=10.0),
        sigma=1.0,
        n_grid=(3000,),
        penalties=(PenaltyTemplate(SCAD, 5.0),),
        repeats=20,
        base_seed=31,
        lambda_rule="oracle",
    )
    t0 = time.perf_counter()
    grid = run_grid(spec)
    return grid, time.perf_counter() - t0


def test_criterion_1_prox_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        lam = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(2.01, 5.0))
        eta = float(rng.uniform(0.1, 2.0))
        z = float(rng.uniform(-6.0, 6.0))
        spec = PenaltySpec(SCAD if i % 2 == 0 else MCP, lam, b)
        got = scalar_prox(spec, z, eta)
        want = prox_grid_oracle(spec, z, eta)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    passed = worst <= PROX_ORACLE_TOL and elapsed < 30.0
    report(1, passed, f"worst |prox - grid oracle| = {worst:.2e} over 1000 cases in {elapsed:.1f}s")
    assert worst <= PROX_ORACLE_TOL
    assert elapsed < 30.0


def test_criterion_2_regularity_suite():
    grid = np.linspace(0.01, 10.0, 1000)
    worst = 0.0
    all_ok = True
    for lam in (0.5, 1.0, 2.0):
        for b in (2.1, 3.7, 5.0):
            rep = check_regularity(PenaltySpec(SCAD, lam, b), grid)
            all_ok &= rep.all_passed
            worst = max(worst, abs(rep.curvature_bounded.witness - 1.0 / (b - 1.0)))
        for b in (1.5, 2.0, 4.0):
            rep = check_regularity(PenaltySpec(MCP, lam, b), grid)
            all_ok &= rep.all_passed
            worst = max(worst, abs(rep.curvature_bounded.witness - 1.0 / b))
    passed = all_ok and worst <= 1e-6
    report(2, passed, f"all conditions pass; worst concavity-witness gap = {worst:.2e}")
    assert all_ok
    assert worst <= 1e-6


def test_criterion_3_exact_recovery(recovery_grid):
    grid, elapsed = recovery_grid
    cells = {n: [t for t in grid.trials if t.n == n] for n in (300, 500)}
    rank_rate = np.mean([t.rank_correct for t in cells[300]])
    med300 = float(np.median([t.frob_err / t.theta_star_frob for t in cells[300]]))
    med500 = float(np.median([t.frob_err / t.theta_star_frob for t in cells[500]]))
    passed = rank_rate >= 0.9 and med300 <= 5e-2 and med500 <= 1e-2 and elapsed < 180
    report(
        3,
        passed,
        f"rank rate {rank_rate:.2f} at n=3rm; median rel err {med300:.4f} (n=300), "
        f"{med500:.4f} (n=500); {elapsed:.0f}s",
    )
    assert rank_rate >= 0.9
    assert med300 <= 5e-2
    assert med500 <= 1e-2
    assert elapsed < 180


def test_criterion_4_scad_beats_nuclear(comparison_grid):
    grid, elapsed, spec = comparison_grid
    assert spec.r == 13  # floor(log(40)^2) under the natural log
    scad = {a["N"]: a["mean_mse"] for a in grid.aggregate if a["penalty"] == "scad"}
    nuclear = {a["N"]: a["mean_mse"] for a in grid.aggregate if a["penalty"] == "nuclear"}
    wins = sum(1 for N in scad if scad[N] <= nuclear[N])
    frac = wins / len(scad)
    passed = frac >= 0.8 and elapsed < 900
    pairs = ", ".join(
        f"N={N:g}: {scad[N]:.3f} vs {nuclear[N]:.3f}" for N in sorted(scad)
    )
    report(4, passed, f"folded-concave wins {wins}/{len(scad)} cells ({pairs}); {elapsed:.0f}s")
    assert frac >= 0.8
    assert elapsed < 900


def test_criterion_5_oracle_property(oracle_grid):
    grid, elapsed = oracle_grid
    match_rate = np.mean([bool(t.oracle_match) for t in grid.trials])
    rank_rate = np.mean([t.rank_correct for t in grid.trials])
    passed = match_rate >= 0.9 and rank_rate >= 0.9 and elapsed < 180
    report(
        5,
        passed,
        f"oracle match rate {match_rate:.2f}, rank rate {rank_rate:.2f} "
        f"over {len(grid.trials)} trials; {elapsed:.0f}s",
    )
    assert match_rate >= 0.9
    assert rank_rate >= 0.9
    assert elapsed < 180


def test_criterion_6_bound_domination(recovery_grid, comparison_grid, oracle_grid):
    pool = list(recovery_grid[0].trials) + list(comparison_grid[0].trials) + list(
        oracle_grid[0].trials
    )
    # converged completion errors should sit in the cone almost always
    completion = [t for t in comparison_grid[0].trials if t.converged]
    cone_rate = np.mean([t.in_cone for t in completion])
    assert cone_rate >= 0.95

    qualifying = [
        t for t in pool if t.converged and t.in_cone and t.bound_total is not None
    ]
    assert qualifying, "no trial qualifies for the bound check"
    holds = [t for t in qualifying if t.frob_err <= t.bound_total]
    violations = [t for t in qualifying if t.frob_err > t.bound_total]
    rate = len(holds) / len(qualifying)
    stragglers = [t for t in violations if t.fixed_point_residual <= 10 * t.tol]
    passed = rate >= 0.95 and not stragglers
    report(
        6,
        passed,
        f"bound holds in {len(holds)}/{len(qualifying)} qualifying trials "
        f"({len(pool)} pooled); converged violations: {len(stragglers)}",
    )
    assert rate >= 0.95
    assert not stragglers, "bound violations must coincide with non-convergence"


def test_oracle_premise_implies_match(recovery_grid, comparison_grid, oracle_grid):
    # the oracle property: a trial whose oracle_gap is positive (its curvature
    # estimate clears zeta_minus and min gamma* clears
    # nu + 2 sqrt(r) ||X*(eps)||_2 / (n kappa_hat)) must equal the oracle
    pool = list(recovery_grid[0].trials) + list(comparison_grid[0].trials) + list(
        oracle_grid[0].trials
    )
    premise = [t for t in pool if t.oracle_gap is not None and t.oracle_gap > 0]
    print(f"oracle premise holds in {len(premise)}/{len(pool)} pooled trials")
    assert premise, "no trial meets the oracle premise"
    misses = [
        (t.model, t.n, t.penalty, t.repeat, t.oracle_gap)
        for t in premise
        if t.oracle_match is not True
    ]
    assert not misses, f"premise trials without an oracle match: {misses}"


def test_criterion_7_scaling_slope():
    m, r = 40, 5
    spec = TrialSpec(
        model="completion",
        m1=m,
        m2=m,
        r=r,
        spectrum_rule=AllAboveNu(margin=0.5),
        sigma=0.5,
        n_grid=tuple(raw_sample_size("completion", N, r, m) for N in (3, 4, 5, 6, 7)),
        penalties=(PenaltyTemplate(SCAD, 1.0 + 2.0 * m * m),),
        repeats=20,
        base_seed=9,
    )
    t0 = time.perf_counter()
    grid = run_grid(spec)
    elapsed = time.perf_counter() - t0
    ns = np.array([a["n"] for a in grid.aggregate], dtype=float)
    errs = np.array([a["mean_frob_err"] for a in grid.aggregate])
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    passed = -0.65 <= slope <= -0.35
    report(7, passed, f"log-log slope of mean error vs n = {slope:.3f}; {elapsed:.0f}s")
    assert -0.65 <= slope <= -0.35


def test_criterion_8_property_suites(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)

    # adjointness, both design kinds
    worst_adj = 0.0
    for _ in range(100):
        m1, m2 = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        n = int(rng.integers(1, 25))
        design = (
            sample_completion_design(rng, m1, m2, n)
            if rng.random() < 0.5
            else sample_sensing_design(rng, m1, m2, n)
        )
        theta = rng.standard_normal((m1, m2))
        v = rng.standard_normal(n)
        lhs = float(apply_forward(design, theta) @ v)
        rhs = float(np.sum(theta * apply_adjoint(design, v)))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst_adj <= 1e-10

    # projection algebra
    worst_proj = 0.0
    for _ in range(50):
        _, u, v = random_low_rank(rng, 8, 7, [2.0, 1.0])
        sub = Subspace(u, v)
        a = rng.standard_normal((8, 7))
        p = project_onto(sub, a)
        worst_proj = max(worst_proj, np.abs(project_onto(sub, p) - p).max())
        split = np.linalg.norm(p) ** 2 + np.linalg.norm(a - p) ** 2 - np.linalg.norm(a) ** 2
        worst_proj = max(worst_proj, abs(split))
    assert worst_proj <= 1e-9

    # singular value perturbation check
    worst_weyl = max(
        weyl_gap(rng.standard_normal((5, 6)), rng.standard_normal((5, 6)))
        for _ in range(200)
    )
    assert worst_weyl <= 1e-10

    # gradient vs central finite differences
    design = sample_sensing_design(rng, 4, 5, 30)
    theta_star = rng.standard_normal((4, 5))
    obs = generate_observations(design, theta_star, 0.2, rng)
    theta = rng.standard_normal((4, 5))
    grad = loss_gradient(obs, theta)
    worst_fd = 0.0
    for j in range(4):
        for k in range(5):
            e = np.zeros((4, 5))
            e[j, k] = 1e-6
            fd = (loss_value(obs, theta + e) - loss_value(obs, theta - e)) / 2e-6
            worst_fd = max(worst_fd, abs(grad[j, k] - fd))
    assert worst_fd <= 1e-4

    # grid determinism: numeric content byte-identical across two runs
    # (the wall-clock runtime column is execution metadata and is excluded)
    spec = TrialSpec(
        model="completion",
        m1=8,
        m2=8,
        r=2,
        spectrum_rule=AllAboveNu(margin=5.0),
        sigma=0.1,
        n_grid=(150, 250),
        penalties=(PenaltyTemplate(SCAD, 129.0),),
        repeats=2,
        base_seed=55,
        solver=SolverConfig(max_iter=1000),
    )
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_trials_csv(p1, run_grid(spec).trials)
    write_trials_csv(p2, run_grid(spec).trials)
    strip = lambda text: b"\n".join(
        line.rsplit(b",", 1)[0] for line in text.splitlines()
    )
    deterministic = strip(p1.read_bytes()) == strip(p2.read_bytes())
    assert deterministic

    elapsed = time.perf_counter() - t0
    passed = elapsed < 60
    report(
        8,
        passed,
        f"adjointness {worst_adj:.1e}, projections {worst_proj:.1e}, "
        f"weyl {worst_weyl:.1e}, grad-fd {worst_fd:.1e}, grid deterministic; {elapsed:.0f}s",
    )
    assert elapsed < 60


def test_criterion_9_documented_exclusions():
    # Absolute RMSE tables for image inpainting and the Jester benchmarks
    # need external baseline systems (SVP, SoftImpute, AltMin, TNC, R1MP)
    # and the original datasets, and the full-size m=80 curves need 100
    # repeats; neither is reproduced here.  Criteria 3-7 are the desk-scale
    # substitutes exercising the same estimator claims.
    report(9, True, "external-baseline tables and full-size curves excluded by design")
