import math

import numpy as np
import pytest

from lowrankpen import operators
from lowrankpen import solver as solver_module
from lowrankpen.operators import (
    apply_forward,
    CompletionDesign,
    ObservationSet,
    Subspace,
    generate_observations,
    loss_gradient,
    project_onto,
    sample_completion_design,
    sample_sensing_design,
)
from lowrankpen.penalty import MCP, NUCLEAR, SCAD, PenaltySpec
from lowrankpen.solver import (
    DivergenceError,
    RankDeficiencyError,
    SolverConfig,
    UnderdeterminedSystemWarning,
    estimate_lipschitz,
    fit,
    numeric_rank,
    prox_spectral,
    solve_oracle,
)
from lowrankpen.simlab import standard_lambda
from lowrankpen.theory import lambda_sensing, probe_rsc

from conftest import (
    dense_measurement_matrices,
    full_observation_design,
    prox_grid_oracle,
    random_low_rank,
)


def test_numeric_rank():
    assert numeric_rank([5.0, 3.0, 1e-9], 1e-4) == 2
    assert numeric_rank([0.0, 0.0], 1e-4) == 0
    assert numeric_rank([], 1e-4) == 0
    # strictly-above semantics at the boundary
    assert numeric_rank([1.0, 1e-4 * (1.0 + 1e-12)], 1e-4) == 2
    assert numeric_rank([1.0, 1e-4], 1e-4) == 1
    with pytest.raises(ValueError):
        numeric_rank([1.0, -0.5], 1e-4)


def max_rayleigh_quotient(design, rng, samples=200):
    """Largest sampled ||X(Delta)||^2 / (n ||Delta||^2) over the explicit X_i stack."""
    mats = dense_measurement_matrices(design).reshape(design.n, -1)
    deltas = rng.standard_normal((mats.shape[1], samples))
    img = mats @ deltas
    return float(((img * img).sum(0) / (design.n * (deltas * deltas).sum(0))).max())


def test_estimate_lipschitz_full_observation():
    design = full_observation_design(2, 2)
    rho = estimate_lipschitz(design)
    assert rho == 0.25  # every cell observed once: max(count)/n
    assert rho >= max_rayleigh_quotient(design, np.random.default_rng(0)) - 1e-15


def test_estimate_lipschitz_duplicated_cell():
    design = CompletionDesign(2, 2, np.array([[0, 0]] * 9))
    rho = estimate_lipschitz(design)
    assert rho == 1.0  # nine observations of one cell: max(count)/n
    assert rho >= max_rayleigh_quotient(design, np.random.default_rng(1)) - 1e-15


def test_estimate_lipschitz_sensing_concentrates():
    # exact top eigenvalue of X^T X / n; for i.i.d. Gaussian measurements it
    # tends to 1 and lands within 10% at this sample size
    rng = np.random.default_rng(0)
    design = sample_sensing_design(rng, 2, 2, 5000)
    rho = estimate_lipschitz(design)
    mats = dense_measurement_matrices(design).reshape(design.n, 4)
    assert rho == pytest.approx(np.linalg.eigvalsh(mats.T @ mats / design.n)[-1], rel=1e-12)
    assert rho >= max_rayleigh_quotient(design, rng) * (1.0 - 1e-12)
    assert rho == pytest.approx(1.0, rel=0.10)


def test_prox_spectral_diagonal_case():
    spec = PenaltySpec(SCAD, 1.0, 3.7)
    z = np.diag([5.0, 3.0, 0.5])
    out = prox_spectral(spec, z, 1.0)
    got = np.sort(np.linalg.svd(out, compute_uv=False))[::-1]
    expected = [5.0, 4.4 / 1.7, 0.0]
    assert got == pytest.approx(expected, abs=1e-9)
    for value, want in zip([5.0, 3.0, 0.5], expected):
        assert prox_grid_oracle(spec, value, 1.0) == pytest.approx(want, abs=1e-4)


def test_prox_spectral_zero_and_nuclear():
    spec = PenaltySpec(SCAD, 1.0, 3.7)
    assert np.all(prox_spectral(spec, np.zeros((3, 4)), 1.0) == 0.0)
    nuc = PenaltySpec(NUCLEAR, 1.0)
    out = prox_spectral(nuc, np.diag([3.0, 0.5]), 1.0)
    got = np.sort(np.linalg.svd(out, compute_uv=False))[::-1]
    assert got == pytest.approx([2.0, 0.0], abs=1e-12)


def test_prox_spectral_matches_soft_threshold_reference():
    rng = np.random.default_rng(4)
    spec = PenaltySpec(NUCLEAR, 0.6)
    for _ in range(20):
        z = rng.standard_normal((5, 4))
        eta = float(rng.uniform(0.2, 2.0))
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        reference = (u * np.maximum(s - eta * spec.lam, 0.0)) @ vt
        assert np.abs(prox_spectral(spec, z, eta) - reference).max() <= 1e-10


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_prox_spectral_rejects_a_non_finite_input(bad):
    # the SVD of a matrix holding an infinity may not return: check first
    z = np.ones((3, 3))
    z[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        prox_spectral(PenaltySpec(SCAD, 0.5, 3.7), z, 1.0)


def test_fit_noiseless_full_observation():
    rng = np.random.default_rng(3)
    theta_star, _, _ = random_low_rank(rng, 5, 5, [2.0, 1.0])
    design = full_observation_design(5, 5)
    obs = generate_observations(design, theta_star, 0.0, rng)
    result = fit(obs, PenaltySpec(SCAD, 1e-8, 3.7), SolverConfig())
    rel = np.linalg.norm(result.theta_hat - theta_star) / np.linalg.norm(theta_star)
    assert rel <= 1e-6
    assert result.converged


def test_fit_sensing_exact_recovery():
    # noiseless measurements, lambda resolved with the sigma floor
    m, r = 20, 3
    n = 5 * r * m
    rng = np.random.default_rng(6)
    lam = lambda_sensing(0.01, m, m, n)
    nu = 3.7 * lam
    gammas = np.linspace(3 * nu, 6 * nu, r)
    theta_star, _, _ = random_low_rank(rng, m, m, gammas)
    design = sample_sensing_design(rng, m, m, n)
    obs = generate_observations(design, theta_star, 0.0, rng)
    result = fit(obs, PenaltySpec(SCAD, lam, 3.7))
    rel = np.linalg.norm(result.theta_hat - theta_star) / np.linalg.norm(theta_star)
    assert rel <= 1e-3
    assert result.rank_hat == r


def test_default_config_recovers_a_criterion_3_sensing_problem():
    # 20 x 20, rank 5, n = 3rm = 300, SCAD b = 3.7, truth values in
    # [13 nu, 26 nu]: from zero the fit lands on a wrong rank, so the
    # default config must warm-start every sensing SCAD fit
    m, r, n = 20, 5, 300
    rng = np.random.default_rng(20260810)
    lam = standard_lambda("sensing", 0.01, m, m, n, 2.0)
    nu = 3.7 * lam
    theta_star, _, _ = random_low_rank(rng, m, m, rng.uniform(13 * nu, 26 * nu, r))
    obs = generate_observations(sample_sensing_design(rng, m, m, n), theta_star, 0.01, rng)
    result = fit(obs, PenaltySpec(SCAD, lam, 3.7))
    assert result.rank_hat == r
    rel = np.linalg.norm(result.theta_hat - theta_star) / np.linalg.norm(theta_star)
    assert rel < 0.05
    assert result.warm_iterations > 0


def test_fit_huge_lambda_returns_zero():
    rng = np.random.default_rng(7)
    design = sample_completion_design(rng, 6, 6, 30)
    theta_star = rng.standard_normal((6, 6))
    obs = generate_observations(design, theta_star, 0.1, rng)
    lam = 10.0 * np.linalg.norm(loss_gradient(obs, np.zeros((6, 6))), 2)
    result = fit(obs, PenaltySpec(SCAD, lam, 3.7), SolverConfig())
    assert np.all(result.theta_hat == 0.0)
    assert result.rank_hat == 0
    assert result.converged


def test_fit_objective_trace_monotone():
    rng = np.random.default_rng(9)
    theta_star, _, _ = random_low_rank(rng, 8, 8, [3.0, 1.5])
    design = sample_completion_design(rng, 8, 8, 200)
    obs = generate_observations(design, theta_star, 0.2, rng)
    result = fit(obs, PenaltySpec(SCAD, 0.05, 3.7), SolverConfig())
    assert np.all(np.diff(result.objective_trace) <= 1e-9)


def test_fit_full_observation_nuclear_matches_soft_threshold():
    # every cell seen once: the loss is ||Y - T||_F^2 / (2n), whose nuclear-
    # penalized minimizer soft-thresholds the singular values of Y at n*lambda
    rng = np.random.default_rng(20)
    m1, m2 = 6, 5
    n = m1 * m2
    data = rng.standard_normal((m1, m2))
    obs = ObservationSet(full_observation_design(m1, m2), data.ravel())
    lam = 0.05
    result = fit(obs, PenaltySpec(NUCLEAR, lam), SolverConfig())
    assert result.eta == n  # 1/L with L = 1/n
    u, s, vt = np.linalg.svd(data, full_matrices=False)
    assert 0 < np.count_nonzero(s > n * lam) < s.size
    reference = (u * np.maximum(s - n * lam, 0.0)) @ vt
    assert result.converged
    assert np.linalg.norm(result.theta_hat - reference) <= 1e-6 * np.linalg.norm(reference)


MONOTONE_SPECS = {
    "nuclear": PenaltySpec(NUCLEAR, 0.05),
    "scad": PenaltySpec(SCAD, 0.05, 3.7),
    "mcp": PenaltySpec(MCP, 0.05, 2.5),
    "sensing": PenaltySpec(SCAD, 0.05, 3.7),
}


@pytest.mark.parametrize("case", [*MONOTONE_SPECS, "finished"])
def test_fit_accelerated_trace_monotone_through_restarts(case, monkeypatch):
    # the accepted objectives never rise: through momentum resets and, on a
    # fit the finisher takes, through its point.  The finisher would end the
    # nuclear fit before its first restart, so it declines there
    if case == "nuclear":
        decline_finisher(monkeypatch)
    if case == "finished":
        obs, spec = flat_completion_problem()
        result = fit(obs, spec, SolverConfig())
        assert finished(result)
        accepted = result.iterations + 2  # the finisher's objective last
    else:
        rng = np.random.default_rng(1)
        theta_star, _, _ = random_low_rank(rng, 8, 8, [3.0, 1.5])
        sample = sample_sensing_design if case == "sensing" else sample_completion_design
        obs = generate_observations(sample(rng, 8, 8, 200), theta_star, 0.2, rng)
        result = fit(obs, MONOTONE_SPECS[case], SolverConfig())
        assert result.restarts > 0  # the momentum overshot and was reset
        accepted = result.iterations + 1  # accepted steps only
    assert result.converged
    assert result.objective_trace.size == accepted
    assert np.all(np.diff(result.objective_trace) <= 1e-12)


@pytest.mark.parametrize("model", ["completion", "sensing"])
def test_fit_takes_one_hessian_product_per_prox_step(model, monkeypatch):
    # each new iterate's H Theta gives its loss and, by linearity, the
    # gradient at the next extrapolated point, at the restart's plain point
    # and in the final residual: one product per prox step (a restart's
    # discarded step included) plus one for the starting point, in the
    # outer fit and in its nested warm start alike
    rng = np.random.default_rng(1)
    theta_star, _, _ = random_low_rank(rng, 8, 8, [3.0, 1.5])
    sample = sample_completion_design if model == "completion" else sample_sensing_design
    obs = generate_observations(sample(rng, 8, 8, 200), theta_star, 0.2, rng)
    products = []
    hessian_product = operators.hessian_product

    def counted(design, cols):
        products.append(cols.shape)
        return hessian_product(design, cols)

    monkeypatch.setattr(operators, "hessian_product", counted)
    _, nested = record_prox_steps(monkeypatch)
    result = fit(obs, PenaltySpec(SCAD, 0.05, 3.7), SolverConfig())
    (warm,) = nested
    assert result.converged and result.restarts > 0
    assert result.warm_iterations == warm.iterations
    # the nested completion fit is finished, which takes one product for its
    # certificate; no sensing fit is
    certificates = int(finished(warm))
    assert certificates == (model == "completion")
    steps = sum(f.iterations + f.restarts + 1 for f in (warm, result))
    assert len(products) == steps + certificates
    assert all(shape == (64, 1) for shape in products)


def test_warm_start_runs_to_the_square_root_of_tol(monkeypatch):
    # the convex start needs only statistical accuracy: the nested nuclear
    # fit gets tol = sqrt(tol) and nothing else, and its step is the outer
    # one; the outer fit reports its length
    configs, steps, iterations = [], [], []
    outer = solver_module.fit

    def logged(obs, spec, config=SolverConfig(), **kwargs):
        configs.append((spec.family, config))
        result = outer(obs, spec, config, **kwargs)
        steps.append(result.eta)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(solver_module, "fit", logged)
    rng = np.random.default_rng(9)
    theta_star, _, _ = random_low_rank(rng, 8, 8, [3.0, 1.5])
    obs = generate_observations(sample_completion_design(rng, 8, 8, 200), theta_star, 0.2, rng)
    config = SolverConfig(tol=1e-8, max_iter=500)
    result = solver_module.fit(obs, PenaltySpec(SCAD, 0.05, 3.7), config)
    assert [family for family, _ in configs] == [SCAD, NUCLEAR]
    warm = configs[1][1]
    assert warm == SolverConfig(max_iter=500, tol=math.sqrt(config.tol))
    assert steps == [result.eta, result.eta]  # the nested fit's, then the outer one
    assert result.warm_iterations == iterations[0] > 0
    assert result.to_dict()["warm_iterations"] == iterations[0]


def test_fit_fixed_point_residual_small_after_convergence():
    rng = np.random.default_rng(10)
    theta_star, _, _ = random_low_rank(rng, 8, 8, [3.0, 1.5])
    design = sample_sensing_design(rng, 8, 8, 200)
    obs = generate_observations(design, theta_star, 0.1, rng)
    config = SolverConfig(tol=1e-8)
    result = fit(obs, PenaltySpec(SCAD, 0.1, 3.7), config)
    assert result.converged
    limit = 10 * config.tol * max(1.0, np.linalg.norm(result.theta_hat))
    assert result.fixed_point_residual <= limit


def test_fit_stops_at_max_iter_without_convergence():
    # max_iter counts accepted steps: a discarded step uses none of it.  The
    # 8 x 8 problem of test_fit_accelerated_trace_monotone_through_restarts
    # restarts first at step 16 and converges at step 57
    rng = np.random.default_rng(11)
    theta_star, _, _ = random_low_rank(rng, 6, 6, [2.0])
    design = sample_completion_design(rng, 6, 6, 100)
    obs = generate_observations(design, theta_star, 0.3, rng)
    result = fit(obs, PenaltySpec(SCAD, 0.05, 3.7), SolverConfig(max_iter=3, tol=1e-14))
    assert not result.converged
    assert result.iterations == 3
    rng = np.random.default_rng(1)
    theta_star, _, _ = random_low_rank(rng, 8, 8, [3.0, 1.5])
    obs = generate_observations(sample_completion_design(rng, 8, 8, 200), theta_star, 0.2, rng)
    result = fit(obs, MONOTONE_SPECS["scad"], SolverConfig(max_iter=20))
    assert not result.converged
    assert result.iterations == 20
    assert result.restarts > 0
    assert result.objective_trace.size == 20 + 1


def test_fit_divergence_raises_named_iteration():
    rng = np.random.default_rng(12)
    design = sample_sensing_design(rng, 4, 4, 20)
    theta_star = rng.standard_normal((4, 4))
    obs = generate_observations(design, theta_star, 0.1, rng)
    # observations of order 1e200: the squares in the first step's loss overflow
    huge = ObservationSet(design, 1e200 * obs.y)
    with pytest.raises(DivergenceError, match="objective became non-finite at iteration 1$"):
        fit(huge, PenaltySpec(SCAD, 1e-6, 3.7), SolverConfig(max_iter=200))


def test_fit_rejects_a_non_finite_final_residual():
    # a 5 x 4 completion with one observation at 1e308: the iteration stops
    # on a finite objective after two steps, but the residual's gradient step
    # (eta = 20) overflows; the fit must not report that as converged
    cells = [(j, k) for j in range(5) for k in range(4)]
    y = np.array([1e308 if cell == (1, 0) else 0.5 * cell[0] - 0.3 * cell[1] for cell in cells])
    obs = ObservationSet(CompletionDesign(m1=5, m2=4, entries=np.array(cells)), y)
    lam = standard_lambda("completion", 0.2, 5, 4, len(cells), 2.0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="residual"):
        fit(obs, PenaltySpec(SCAD, lam, 3.7), SolverConfig(max_iter=30))


@pytest.mark.parametrize("start", ["zero", "nuclear"])
@pytest.mark.parametrize("model", ["completion", "sensing"])
def test_fit_spectrum_matches_svd_of_estimate(model, start):
    # the reported spectrum comes from the last prox step; it must be the
    # spectrum of theta_hat and give its rank, from either start fit takes:
    # a nuclear-norm fit starts from zero, and these SCAD fits lie outside
    # the finisher's gate, so they start from the nested nuclear-norm fit
    rng = np.random.default_rng(15)
    theta_star, _, _ = random_low_rank(rng, 8, 7, [3.0, 1.5])
    if model == "completion":
        design = sample_completion_design(rng, 8, 7, 150)
    else:
        design = sample_sensing_design(rng, 8, 7, 120)
    obs = generate_observations(design, theta_star, 0.2, rng)
    spec = PenaltySpec(NUCLEAR, 0.05) if start == "zero" else PenaltySpec(SCAD, 0.05, 3.7)
    result = fit(obs, spec)
    assert (result.warm_iterations > 0) == (start == "nuclear")
    s = np.linalg.svd(result.theta_hat, compute_uv=False)
    assert result.spectrum.shape == s.shape
    assert np.abs(result.spectrum - s).max() <= 1e-12 * s[0]
    assert result.rank_hat == numeric_rank(s, solver_module._RANK_TOL_REL)
    assert 0 < result.rank_hat < s.size


@pytest.mark.parametrize(
    "model,m,gammas,n",
    [
        ("completion", 5, [2.0, 1.0], None),
        # 441 coefficients in one normal system
        ("completion", 21, np.linspace(3.0, 1.0, 21), None),
        ("sensing", 6, [2.0, 1.0], 100),
    ],
    ids=["full-5x5-r2", "full-21x21-r21", "sensing-6x6-r2"],
)
def test_solve_oracle_exact_on_noiseless_data(model, m, gammas, n):
    rng = np.random.default_rng(16)
    theta_star, u, v = random_low_rank(rng, m, m, gammas)
    if model == "completion":
        design = full_observation_design(m, m)
    else:
        design = sample_sensing_design(rng, m, m, n)
    obs = generate_observations(design, theta_star, 0.0, rng)
    theta_o = solve_oracle(obs, Subspace(u, v))
    assert np.abs(theta_o - theta_star).max() <= 1e-10


def test_solve_oracle_rank_deficiency_reported():
    # coordinate frames on 3x3; cell (1, 1) of the 2x2 block is never observed,
    # so the normal system is singular although n = 9 >= r^2 = 4
    eye = np.eye(3)
    cells = np.repeat([[0, 0], [0, 1], [1, 0]], 3, axis=0)
    design = CompletionDesign(m1=3, m2=3, entries=cells)
    obs = ObservationSet(design, np.ones(design.n))
    with pytest.raises(RankDeficiencyError) as info:
        solve_oracle(obs, Subspace(eye[:, :2], eye[:, :2]))
    assert info.value.null_dim == 1


def test_solve_oracle_underdetermined_minimum_norm():
    rng = np.random.default_rng(17)
    theta_star, u, v = random_low_rank(rng, 3, 3, [2.0, 1.0])
    design = sample_sensing_design(rng, 3, 3, 3)  # n=3 < r^2=4
    obs = generate_observations(design, theta_star, 0.1, rng)
    with pytest.warns(UnderdeterminedSystemWarning):
        theta_o = solve_oracle(obs, Subspace(u, v))
    # independent pseudoinverse reference on the reduced design
    a = np.array([(u.T @ x @ v).ravel() for x in design.matrices])
    c_ref = np.linalg.pinv(a) @ obs.y
    reference = u @ c_ref.reshape(2, 2) @ v.T
    assert np.abs(theta_o - reference).max() <= 1e-8


def test_solve_oracle_noisy_error_bound():
    # rank-restricted LS error vs 2*sqrt(r)*||P_F(grad at truth)||_2/kappa_hat
    rng = np.random.default_rng(18)
    m, r = 12, 2
    holds = 0
    for _ in range(50):
        nu_scale = rng.uniform(0.5, 2.0)
        theta_star, u, v = random_low_rank(rng, m, m, rng.uniform(nu_scale, 3 * nu_scale, r))
        sub = Subspace(u, v)
        design = sample_completion_design(rng, m, m, 4 * m * m)
        obs = generate_observations(design, theta_star, 0.1, rng)
        probe = probe_rsc(design, sub, 300, rng)
        theta_o = solve_oracle(obs, sub)
        err = np.linalg.norm(theta_o - theta_star)
        grad_norm = np.linalg.norm(project_onto(sub, loss_gradient(obs, theta_star)), 2)
        bound = 2.0 * np.sqrt(r) * grad_norm / probe.kappa_hat
        holds += err <= bound
    assert holds == 50


def test_fit_result_serialization():
    rng = np.random.default_rng(19)
    theta_star, _, _ = random_low_rank(rng, 4, 4, [2.0])
    design = full_observation_design(4, 4)
    obs = generate_observations(design, theta_star, 0.0, rng)
    result = fit(obs, PenaltySpec(NUCLEAR, 1e-6), SolverConfig())
    doc = result.to_dict()
    assert set(doc) == {
        "rank_hat", "iterations", "converged", "fixed_point_residual", "spectrum",
        "eta", "restarts", "finish_sweeps", "warm_iterations",
    }
    assert doc["rank_hat"] == result.rank_hat
    assert doc["eta"] == result.eta == 16.0  # 1/L with L = max(count)/n = 1/16
    assert doc["restarts"] == result.restarts >= 0
    # converged before its kept rank held for the finisher's gate
    assert doc["finish_sweeps"] == result.finish_sweeps == 0
    assert doc["warm_iterations"] == result.warm_iterations == 0  # no warm start
    assert len(doc["spectrum"]) == 4


def spectrum_matrix(rng, m1, m2, values):
    """m1 x m2 matrix with the given singular values (the rest zero)."""
    q = min(m1, m2)
    u, _ = np.linalg.qr(rng.standard_normal((m1, q)))
    v, _ = np.linalg.qr(rng.standard_normal((m2, q)))
    s = np.zeros(q)
    s[: len(values)] = values
    return (u * s) @ v.T


def count_truncated(monkeypatch):
    """Record the outcome of every truncated SVD attempt: True when it was accepted."""
    outcomes = []
    original = solver_module._truncated_svd

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(solver_module, "_truncated_svd", counted)
    return outcomes


PROX_SPECS = [PenaltySpec(NUCLEAR, 0.5), PenaltySpec(SCAD, 0.5, 3.7), PenaltySpec(MCP, 0.5, 2.5)]


@pytest.mark.parametrize("spec", PROX_SPECS, ids=["nuclear", "scad", "mcp"])
@pytest.mark.parametrize("shape", [(100, 120), (130, 100)], ids=["wide", "tall"])
@pytest.mark.parametrize("case", ["near-threshold", "grows"])
def test_truncated_prox_matches_full_svd(spec, shape, case, monkeypatch):
    # the warm block comes from a nearby matrix, as between two solver steps;
    # the near-threshold spectrum has values 1% and 0.5% on both sides of
    # eta * lambda, and in the growing case the nearby matrix has rank 3
    # while 14 values of z clear the threshold, so the 8-column block cannot
    # hold them and the full SVD takes over
    m = min(shape)
    assert m >= solver_module._TRUNCATE_MIN_DIM
    rng = np.random.default_rng(31)
    eta = 1.3
    tau = eta * spec.lam
    if case == "near-threshold":
        values = tau * np.concatenate(
            [[6.0, 4.0, 2.5, 1.01, 1.005, 0.995, 0.99], 0.3 * rng.uniform(0.0, 1.0, m - 7)]
        )
    else:
        values = tau * np.concatenate(
            [np.linspace(8.0, 2.0, 14), 0.05 * rng.uniform(0.0, 1.0, m - 14)]
        )
    z = spectrum_matrix(rng, *shape, np.sort(values)[::-1])
    nearby = z + 1e-6 * tau * rng.standard_normal(shape)
    if case == "grows":
        u, s, vt = np.linalg.svd(nearby, full_matrices=False)
        nearby = (u[:, :3] * s[:3]) @ vt[:3]
    block = solver_module._prox_svd(spec, nearby, eta)[2]
    outcomes = count_truncated(monkeypatch)

    theta, spectrum, next_block = solver_module._prox_svd(spec, z, eta, block)
    # the truncated path ran, and was accepted unless it had to fall back
    assert outcomes == [case == "near-threshold"]
    theta_ref, spectrum_ref, _ = solver_module._prox_svd(spec, z, eta)
    rank = int(np.count_nonzero(spectrum_ref))
    assert spectrum.shape == spectrum_ref.shape == (m,)
    assert np.count_nonzero(spectrum) == rank == (5 if case == "near-threshold" else 14)
    scale = float(np.linalg.norm(z, 2))
    assert np.abs(spectrum - spectrum_ref).max() <= 1e-10 * scale
    assert np.abs(theta - theta_ref).max() <= 1e-10 * scale
    assert np.array_equal(theta_ref, prox_spectral(spec, z, eta))
    assert next_block.shape[0] == shape[1]
    assert rank < next_block.shape[1] <= rank + solver_module._OVERSAMPLE


@pytest.mark.parametrize("spec", PROX_SPECS[1:], ids=["scad", "mcp"])
def test_truncated_prox_falls_back_when_eta_breaks_zeroing(spec, monkeypatch):
    # SCAD with eta >= b - 1 and MCP with eta >= b can map a value above
    # zero from below eta * lambda, so the block is ignored
    rng = np.random.default_rng(32)
    z = spectrum_matrix(rng, 100, 100, np.linspace(20.0, 0.1, 100))
    eta = spec.b
    block = solver_module._prox_svd(spec, z + 1e-6, eta)[2]
    outcomes = count_truncated(monkeypatch)
    theta, spectrum, _ = solver_module._prox_svd(spec, z, eta, block)
    assert outcomes == []
    theta_ref, spectrum_ref, _ = solver_module._prox_svd(spec, z, eta)
    assert np.array_equal(theta, theta_ref) and np.array_equal(spectrum, spectrum_ref)


def test_truncated_prox_skipped_below_cutoff(monkeypatch):
    rng = np.random.default_rng(33)
    m = solver_module._TRUNCATE_MIN_DIM - 1
    z = spectrum_matrix(rng, m, m + 5, np.linspace(5.0, 0.1, m))
    spec = PenaltySpec(NUCLEAR, 1.0)
    block = solver_module._prox_svd(spec, z, 1.0)[2]
    outcomes = count_truncated(monkeypatch)
    theta = solver_module._prox_svd(spec, z, 1.0, block)[0]
    assert outcomes == []
    assert np.array_equal(theta, prox_spectral(spec, z, 1.0))


@pytest.mark.parametrize("case", ["gap", "cluster"])
def test_truncated_svd_without_allowance(case, monkeypatch):
    # an 8-column block from a matrix 1e-3 away and no allowance: behind a
    # clear gap (6 against at most 1) the block iterates past its first step
    # to the exact triplets; with a cluster just below the smallest kept
    # value (2.02 against 2.0 - 0.002 i) the rate test gives up at once
    rng = np.random.default_rng(36)
    if case == "gap":
        top, threshold = [10.0, 8.0, 6.0], 2.0
    else:
        top, threshold = [10.0, 8.0, 2.02, *(2.0 - 0.002 * np.arange(1, 12))], 2.01
    values = np.concatenate([top, rng.uniform(0.0, 1.0, 100 - len(top))])
    z = spectrum_matrix(rng, 100, 110, np.sort(values)[::-1])
    block = np.linalg.svd(z + 1e-3 * rng.standard_normal(z.shape))[2][:8].T
    steps = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda y: steps.append(y) or qr(y))
    out = solver_module._truncated_svd(z, block, threshold)
    if case == "cluster":
        assert out is None and len(steps) == 1
        return
    assert 1 < len(steps) <= solver_module._BLOCK_STEPS
    u, s, vt = out
    u_ref, s_ref, vt_ref = np.linalg.svd(z)
    tol = solver_module._RITZ_TOL * s_ref[0]
    assert np.abs(s[:3] - s_ref[:3]).max() <= tol
    kept, kept_ref = (u[:, :3] * s[:3]) @ vt[:3], (u_ref[:, :3] * s_ref[:3]) @ vt_ref[:3]
    assert np.abs(kept - kept_ref).max() <= tol


def test_fit_at_cutoff_matches_full_svd_reference(monkeypatch):
    # a completion fit of side _TRUNCATE_MIN_DIM against the same fit with
    # the truncated prox switched off; neither may draw random numbers
    m = solver_module._TRUNCATE_MIN_DIM
    rng = np.random.default_rng(34)
    design = sample_completion_design(rng, m, m, 4 * m * m // 10)
    noise = generate_observations(design, np.zeros((m, m)), 0.5, rng)
    # lambda puts eta * lambda 20% above the noise's top singular value, and
    # the truth clears the SCAD flat threshold b * lambda
    lam = 1.2 * np.linalg.norm(loss_gradient(noise, np.zeros((m, m))), 2)
    spec = PenaltySpec(SCAD, lam, 1.0 + 2.0 * m * m)
    theta_star, _, _ = random_low_rank(rng, m, m, spec.nu * np.array([2.5, 2.0, 1.6, 1.25]))
    obs = ObservationSet(design, apply_forward(design, theta_star) + noise.y)
    config = SolverConfig()

    outcomes = count_truncated(monkeypatch)
    state = np.random.get_state()
    result = fit(obs, spec, config)
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1]) and after[2:] == state[2:]
    assert sum(outcomes) > result.iterations // 2  # most steps took the truncated path

    monkeypatch.setattr(solver_module, "_TRUNCATE_MIN_DIM", m + 1)
    reference = fit(obs, spec, config)
    assert result.rank_hat == reference.rank_hat == 4
    assert result.converged and reference.converged
    rel = np.linalg.norm(result.theta_hat - reference.theta_hat) / np.linalg.norm(reference.theta_hat)
    assert rel <= 1e-8
    # the certificate takes the full SVD on both paths
    assert result.fixed_point_residual == pytest.approx(reference.fixed_point_residual, rel=1e-3, abs=1e-9)


def prox_lipschitz(spec, eta):
    """Lipschitz constant of the scalar prox of ``spec`` at a step ``eta`` with
    eta * zeta_minus < 1."""
    return 1.0 / (1.0 - eta * spec.zeta_minus)


@pytest.mark.parametrize("spec", PROX_SPECS, ids=["nuclear", "scad", "mcp"])
def test_truncated_prox_within_allowance_of_full_svd(spec, monkeypatch):
    # a cluster of eleven values just below eta * lambda, one 2% above it and
    # a block from a matrix 1e-3 * eta * lambda away: the residuals cannot
    # reach _RITZ_TOL, so the exact iteration gives up
    rng = np.random.default_rng(35)
    eta = 1.3
    tau = eta * spec.lam
    values = tau * np.concatenate(
        [[6.0, 4.0, 2.5, 1.02], 1.0 - 0.002 * np.arange(1, 12), 0.3 * rng.uniform(0.0, 1.0, 85)]
    )
    z = spectrum_matrix(rng, 100, 110, np.sort(values)[::-1])
    block = solver_module._prox_svd(spec, z + 1e-3 * tau * rng.standard_normal(z.shape), eta)[2]
    theta_ref, spectrum_ref, _ = solver_module._prox_svd(spec, z, eta)
    outcomes = count_truncated(monkeypatch)

    # no allowance: the full SVD takes over, as without one
    theta, spectrum, _ = solver_module._prox_svd(spec, z, eta, block)
    assert outcomes == [False]
    assert np.array_equal(theta, theta_ref) and np.array_equal(spectrum, spectrum_ref)

    allowance = 1e-2 * tau
    theta, spectrum, _ = solver_module._prox_svd(spec, z, eta, block, allowance)
    assert outcomes == [False, True]
    assert np.count_nonzero(spectrum) == np.count_nonzero(spectrum_ref) == 4
    assert 0.0 < np.linalg.norm(theta - theta_ref) <= prox_lipschitz(spec, eta) * allowance


def cutoff_fit_problem():
    """The completion problem of test_fit_at_cutoff_matches_full_svd_reference."""
    m = solver_module._TRUNCATE_MIN_DIM
    rng = np.random.default_rng(34)
    design = sample_completion_design(rng, m, m, 4 * m * m // 10)
    noise = generate_observations(design, np.zeros((m, m)), 0.5, rng)
    lam = 1.2 * np.linalg.norm(loss_gradient(noise, np.zeros((m, m))), 2)
    spec = PenaltySpec(SCAD, lam, 1.0 + 2.0 * m * m)
    theta_star, _, _ = random_low_rank(rng, m, m, spec.nu * np.array([2.5, 2.0, 1.6, 1.25]))
    return ObservationSet(design, apply_forward(design, theta_star) + noise.y), spec


def record_prox_steps(monkeypatch):
    """Log whether each prox of fit took the full SVD, and every nested fit's
    result; a warm start is a call through the module-level name."""
    steps, nested = [], []
    prox = solver_module._prox_svd
    truncated = solver_module._truncated_svd
    outer = solver_module.fit

    def logged_truncated(*args, **kwargs):
        out = truncated(*args, **kwargs)
        steps[-1] = out is None
        return out

    def logged_prox(*args):
        steps.append(True)
        return prox(*args)

    def nested_fit(*args, **kwargs):
        result = outer(*args, **kwargs)
        nested.append(result)
        return result

    monkeypatch.setattr(solver_module, "_truncated_svd", logged_truncated)
    monkeypatch.setattr(solver_module, "_prox_svd", logged_prox)
    monkeypatch.setattr(solver_module, "fit", nested_fit)
    return steps, nested


@pytest.mark.parametrize("case", ["scad", "mcp", "cutoff"])
def test_warm_start_is_ignored_inside_the_finishers_gate(case, monkeypatch):
    # a fit the finisher can take starts from zero: no nested fit runs, and
    # the objective trace opens with the loss at zero.  It takes one prox
    # per step and one more per restart, then the certificate's, by the full
    # SVD where the cutoff problem's steps mostly take the truncated prox
    obs, spec = cutoff_fit_problem() if case == "cutoff" else flat_completion_problem(case)
    steps, nested = record_prox_steps(monkeypatch)
    result = fit(obs, spec)
    assert nested == [] and result.warm_iterations == 0
    assert result.objective_trace[0] == pytest.approx(obs.loss_at_zero, rel=1e-12)
    assert len(steps) == result.iterations + result.restarts + 1
    assert steps[-1] is True
    if case == "cutoff":
        assert steps.count(False) > result.iterations // 2
    assert result.converged


@pytest.mark.parametrize(
    "case", ["sensing", "nuclear", "eta_at_b_minus_1", "b_3_7"]
)
def test_warm_start_gate_leaves_other_fits_alone(case, monkeypatch):
    # outside the finisher's gate a SCAD fit starts from an ordinary nuclear
    # fit: the same fit, bit for bit, as one run directly to sqrt(tol), with
    # its own finite certificate.  A nuclear fit is its own convex start and
    # runs no nested fit
    if case == "nuclear":
        obs, spec = flat_completion_problem()
        spec, config = PenaltySpec(NUCLEAR, spec.lam), SolverConfig()
    else:
        obs, spec, config = never_finish_case(case)
    _, nested = record_prox_steps(monkeypatch)
    result = fit(obs, spec, config)
    if case == "nuclear":
        assert nested == [] and result.warm_iterations == 0
        return
    (warm,) = nested
    assert result.warm_iterations == warm.iterations > 0
    assert warm.converged and math.isfinite(warm.fixed_point_residual)
    monkeypatch.undo()
    direct = fit(obs, PenaltySpec(NUCLEAR, spec.lam), SolverConfig(tol=math.sqrt(config.tol)))
    assert warm.iterations == direct.iterations
    assert warm.fixed_point_residual == direct.fixed_point_residual
    assert np.array_equal(warm.theta_hat, direct.theta_hat)


def test_fit_takes_every_plain_step_exactly(monkeypatch):
    # the nuclear fit that warm-starts the cutoff problem; a huge fraction
    # lets a momentum step accept every block the exact iteration gives up
    # on, and dropping the leading triplet of each such block makes those
    # steps raise the objective.  The restart's plain step gets no
    # allowance, so it is exact and the trace stays monotone.  The problem
    # is convex, so at a tight tol the fit also reaches the minimizer of the
    # full-SVD reference
    obs, spec = cutoff_fit_problem()
    spec = PenaltySpec(NUCLEAR, spec.lam)
    config = SolverConfig(tol=1e-10)
    monkeypatch.setattr(solver_module, "_TRUNCATE_MIN_DIM", solver_module._TRUNCATE_MIN_DIM + 1)
    reference = fit(obs, spec, config)
    monkeypatch.undo()

    monkeypatch.setattr(solver_module, "_PROGRESS_FRACTION", 1e12)
    truncated = solver_module._truncated_svd
    calls, degraded = [], []  # (block, allowance) of each attempt; blocks degraded

    def degrading(z, block, threshold, allowance=0.0):
        calls.append((block, allowance))
        exact = truncated(z, block, threshold)
        if exact is not None or allowance == 0.0:
            return exact
        out = truncated(z, block, threshold, allowance)
        if out is None:
            return None
        degraded.append(True)
        u, s, vt = out
        return u[:, 1:], s[1:], vt[1:]

    monkeypatch.setattr(solver_module, "_truncated_svd", degrading)
    result = fit(obs, spec, config)
    assert degraded
    # a restart's plain step starts from the block of the step it replaces
    plain = [allowance for (prev, _), (block, allowance) in zip(calls, calls[1:]) if block is prev]
    assert len(plain) == result.restarts > 0
    assert all(allowance == 0.0 for allowance in plain)
    assert np.all(np.diff(result.objective_trace) <= 1e-12)
    assert result.converged and reference.converged
    assert result.rank_hat == reference.rank_hat
    rel = np.linalg.norm(result.theta_hat - reference.theta_hat) / np.linalg.norm(reference.theta_hat)
    assert rel <= 1e-8


def flat_completion_problem(family=SCAD, low=None, seed=41):
    """A 30 x 30 completion problem whose rank-3 truth clears the flat
    threshold nu = b * lambda, b = 1 + 2 m^2, with lambda 20% above the
    noise's gradient norm, as in cutoff_fit_problem; ``low`` adds a fourth
    true singular value of low * nu.  For the nuclear norm (nu = inf) the
    truth is the SCAD one."""
    m = 30
    rng = np.random.default_rng(seed)
    design = sample_completion_design(rng, m, m, m * m)
    noise = generate_observations(design, np.zeros((m, m)), 0.5, rng)
    lam = 1.2 * np.linalg.norm(loss_gradient(noise, np.zeros((m, m))), 2)
    b = 1.0 + 2.0 * m * m
    spec = PenaltySpec(family, lam, b)
    gammas = [2.5, 2.0, 1.6] + ([low] if low is not None else [])
    theta_star, _, _ = random_low_rank(rng, m, m, b * lam * np.array(gammas))
    return ObservationSet(design, apply_forward(design, theta_star) + noise.y), spec


def decline_finisher(monkeypatch):
    """Make the finisher return no point, so fit runs its plain loop."""
    monkeypatch.setattr(solver_module, "_als_finish", lambda *args: (None, None, 0))


def finisher_calls(monkeypatch):
    """Record the ridge of each finisher call and the sweeps it took."""
    calls = []
    als = solver_module._als_finish

    def recorded(obs, theta, frame, tol, ridge):
        out = als(obs, theta, frame, tol, ridge)
        calls.append((ridge, out[2]))
        return out

    monkeypatch.setattr(solver_module, "_als_finish", recorded)
    return calls


def finished(result):
    """Whether the finisher's point was accepted (its objective ends the trace)."""
    return result.finish_sweeps > 0 and result.objective_trace.size == result.iterations + 2


@pytest.mark.parametrize("family", [SCAD, MCP, NUCLEAR])
def test_finished_fit_lands_closer_to_the_fixed_point(family, monkeypatch):
    # the fit is finished once, with ridge lambda for the nuclear norm and 0
    # in the SCAD/MCP flat region, and its point is certified; inside the
    # finisher's gate no warm start runs.  Against a tol = 1e-13 run of the
    # plain loop, the finished fit is closer than the plain loop at the same
    # tol, its residual is smaller, and its objective no higher
    obs, spec = flat_completion_problem(family)
    config = SolverConfig()
    calls = finisher_calls(monkeypatch)
    result = fit(obs, spec, config)
    assert calls == [(spec.lam if family == NUCLEAR else 0.0, result.finish_sweeps)]
    assert result.warm_iterations == 0
    assert finished(result) and result.converged and result.rank_hat == 3
    assert np.all(np.diff(result.objective_trace) <= 1e-12)

    decline_finisher(monkeypatch)
    loop = fit(obs, spec, config)
    reference = fit(obs, spec, SolverConfig(tol=1e-13, max_iter=20000))
    assert loop.finish_sweeps == reference.finish_sweeps == 0 and reference.converged
    assert loop.iterations > result.iterations

    def distance(fit_result):
        return np.linalg.norm(fit_result.theta_hat - reference.theta_hat) / np.linalg.norm(
            reference.theta_hat
        )

    assert distance(result) < distance(loop)
    assert result.fixed_point_residual < loop.fixed_point_residual
    assert result.fixed_point_residual <= config.tol * np.linalg.norm(result.theta_hat)
    assert result.objective_trace[-1] <= loop.objective_trace[-1] + 1e-12
    s = np.linalg.svd(result.theta_hat, compute_uv=False)
    assert np.abs(result.spectrum - s).max() <= 1e-12 * s[0]


def sensing_flat_problem():
    rng = np.random.default_rng(42)
    m, r, n = 8, 2, 300
    lam = lambda_sensing(0.1, m, m, n)
    spec = PenaltySpec(SCAD, lam, 3.7)
    theta_star, _, _ = random_low_rank(rng, m, m, spec.nu * np.array([4.0, 2.5]))
    design = sample_sensing_design(rng, m, m, n)
    return generate_observations(design, theta_star, 0.1, rng), spec


def never_finish_case(case):
    """(observations, penalty, config) that meet every gate of the finisher
    but the one named."""
    config = SolverConfig()
    if case == "sensing":
        return (*sensing_flat_problem(), config)
    if case == "sensing_nuclear":
        obs, spec = sensing_flat_problem()
        return obs, PenaltySpec(NUCLEAR, spec.lam), config
    if case == "mixed":
        return (*flat_completion_problem(low=0.8), config)
    if case == "b_3_7":  # eta * zeta_minus >= 1
        obs, spec = flat_completion_problem()
        return obs, PenaltySpec(SCAD, spec.lam, 3.7), config
    # the step 1/L at the SCAD limit b - 1
    obs, spec = flat_completion_problem()
    eta = 1.0 / estimate_lipschitz(obs.design)
    return obs, PenaltySpec(SCAD, spec.lam, 1.0 + eta), config


@pytest.mark.parametrize(
    "case", ["sensing", "sensing_nuclear", "mixed", "eta_at_b_minus_1", "b_3_7"]
)
def test_finisher_is_never_called_outside_its_gate(case, monkeypatch):
    # only for the outer penalty: a SCAD/MCP fit's nested nuclear warm start
    # (ridge lambda) is a fit of its own, inside its own gate
    obs, spec, config = never_finish_case(case)
    als = solver_module._als_finish

    def forbidden(obs, theta, frame, tol, ridge):
        if spec.family != NUCLEAR and ridge == spec.lam:
            return als(obs, theta, frame, tol, ridge)
        raise AssertionError("the finisher ran")

    monkeypatch.setattr(solver_module, "_als_finish", forbidden)
    result = fit(obs, spec, config)
    if case == "eta_at_b_minus_1":
        assert result.eta == spec.b - 1.0  # bit for bit
    assert result.finish_sweeps == 0
    assert result.objective_trace.size == result.iterations + 1
    # the kept rank held long enough for the finisher otherwise
    assert result.converged and result.iterations > solver_module._FINISH_AFTER + 1
    smallest = result.spectrum[result.rank_hat - 1]
    if case == "mixed":
        assert 0 < smallest < spec.nu <= result.spectrum[0]
    elif spec.family != NUCLEAR:
        assert smallest >= spec.nu


def test_a_declined_finish_lets_the_loop_go_on(monkeypatch):
    # a point 1% off the rank-3 fit fails the certificate: the loop goes on
    # from the iterate it had, with its momentum reset, to the fixed point
    # the plain loop reaches, and the sweeps are still counted
    obs, spec = flat_completion_problem()
    config = SolverConfig()
    decline_finisher(monkeypatch)
    loop = fit(obs, spec, config)
    attempts = []

    def off_point(obs, theta, frame, tol, ridge):
        attempts.append(theta)
        return 1.01 * loop.theta_hat, 1.01 * loop.spectrum, 7

    monkeypatch.setattr(solver_module, "_als_finish", off_point)
    result = fit(obs, spec, config)
    assert len(attempts) == 1 and result.finish_sweeps == 7 and not finished(result)
    assert result.converged and result.rank_hat == loop.rank_hat
    assert np.all(np.diff(result.objective_trace) <= 1e-12)
    # up to the attempt, after the kept rank held, the two fits took the same steps
    n = min(result.objective_trace.size, loop.objective_trace.size)
    differ = np.flatnonzero(result.objective_trace[:n] != loop.objective_trace[:n])
    assert differ.size and differ[0] > solver_module._FINISH_AFTER
    rel = np.linalg.norm(result.theta_hat - loop.theta_hat) / np.linalg.norm(loop.theta_hat)
    assert rel <= 1e-5


def ratings_problem(seed=5):
    """A 200 x 200 rank-5 completion problem: 16000 distinct cells of a
    truth with singular values evenly spaced in [60, 120], noise 0.5."""
    m, cells = 200, 16000
    rng = np.random.default_rng([0x52415447, seed])
    u, _ = np.linalg.qr(rng.standard_normal((m, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((m, 5)))
    theta = (u * np.linspace(120.0, 60.0, 5)) @ v.T
    jj, kk = np.divmod(np.sort(rng.choice(m * m, size=cells, replace=False)), m)
    y = theta[jj, kk] + 0.5 * rng.standard_normal(cells)
    return ObservationSet(CompletionDesign(m1=m, m2=m, entries=np.column_stack([jj, kk])), y)


def test_the_finisher_gives_up_on_a_slow_contraction(monkeypatch):
    # at lambda = 3e-3 the nuclear fit keeps one value, and its finisher
    # contracts at about 0.89 a sweep: the rate test gives up within a few
    # sweeps, and the loop then takes exactly the steps it takes when the
    # finisher declines
    obs = ratings_problem()
    spec = PenaltySpec(NUCLEAR, 3e-3)
    calls = finisher_calls(monkeypatch)
    result = fit(obs, spec, SolverConfig())
    assert calls == [(spec.lam, result.finish_sweeps)]
    assert 2 < result.finish_sweeps <= 10 and not finished(result)
    monkeypatch.undo()
    decline_finisher(monkeypatch)
    loop = fit(obs, spec, SolverConfig())
    assert result.converged and loop.converged
    assert np.array_equal(result.objective_trace, loop.objective_trace)
    assert np.array_equal(result.theta_hat, loop.theta_hat)
