import warnings

import numpy as np
import pytest

from lowrankpen import solver as solver_module
from lowrankpen.operators import (
    apply_forward,
    CompletionDesign,
    ObservationSet,
    Subspace,
    generate_observations,
    loss_gradient,
    loss_value,
    project_onto,
    sample_completion_design,
    sample_sensing_design,
)
from lowrankpen.penalty import MCP, NUCLEAR, SCAD, PenaltySpec, penalty_value
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


def objective(obs, spec, theta):
    s = np.linalg.svd(theta, compute_uv=False)
    return loss_value(obs, theta) + float(np.sum(penalty_value(spec, s)))


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
    lam = lambda_sensing(0.01, 1.0, m, m, n)
    nu = 3.7 * lam
    gammas = np.linspace(3 * nu, 6 * nu, r)
    theta_star, _, _ = random_low_rank(rng, m, m, gammas)
    design = sample_sensing_design(rng, m, m, n)
    obs = generate_observations(design, theta_star, 0.0, rng)
    result = fit(obs, PenaltySpec(SCAD, lam, 3.7), SolverConfig(warm_start="nuclear"))
    rel = np.linalg.norm(result.theta_hat - theta_star) / np.linalg.norm(theta_star)
    assert rel <= 1e-3
    assert result.rank_hat == r


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


@pytest.mark.parametrize("step_scale", [1.0, 0.5])
def test_fit_full_observation_nuclear_matches_soft_threshold(step_scale):
    # every cell seen once: the loss is ||Y - T||_F^2 / (2n), whose nuclear-
    # penalized minimizer soft-thresholds the singular values of Y at n*lambda
    rng = np.random.default_rng(20)
    m1, m2 = 6, 5
    n = m1 * m2
    data = rng.standard_normal((m1, m2))
    obs = ObservationSet(full_observation_design(m1, m2), data.ravel())
    lam = 0.05
    config = SolverConfig(eta=step_scale * n)  # 1/L = n
    result = fit(obs, PenaltySpec(NUCLEAR, lam), config)
    u, s, vt = np.linalg.svd(data, full_matrices=False)
    assert 0 < np.count_nonzero(s > n * lam) < s.size
    reference = (u * np.maximum(s - n * lam, 0.0)) @ vt
    assert result.converged
    assert np.linalg.norm(result.theta_hat - reference) <= 1e-6 * np.linalg.norm(reference)


def test_fit_uses_the_given_eta_as_its_step():
    rng = np.random.default_rng(21)
    theta_star, _, _ = random_low_rank(rng, 6, 6, [2.0, 1.0])
    design = sample_completion_design(rng, 6, 6, 80)
    obs = generate_observations(design, theta_star, 0.1, rng)
    assert fit(obs, PenaltySpec(SCAD, 0.05, 3.7), SolverConfig(eta=0.5)).eta == 0.5
    with pytest.raises(ValueError, match="eta"):
        SolverConfig(eta=0.0)


@pytest.mark.parametrize(
    "spec",
    [PenaltySpec(NUCLEAR, 0.05), PenaltySpec(SCAD, 0.05, 3.7), PenaltySpec(MCP, 0.05, 2.5)],
    ids=["nuclear", "scad", "mcp"],
)
def test_fit_accelerated_trace_monotone_through_restarts(spec):
    rng = np.random.default_rng(1)
    theta_star, _, _ = random_low_rank(rng, 8, 8, [3.0, 1.5])
    design = sample_completion_design(rng, 8, 8, 200)
    obs = generate_observations(design, theta_star, 0.2, rng)
    result = fit(obs, spec, SolverConfig())
    assert result.converged
    assert result.restarts > 0  # the momentum overshot and was reset
    assert result.objective_trace.size == result.iterations + 1  # accepted steps only
    assert np.all(np.diff(result.objective_trace) <= 1e-12)


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
    rng = np.random.default_rng(11)
    theta_star, _, _ = random_low_rank(rng, 6, 6, [2.0])
    design = sample_completion_design(rng, 6, 6, 100)
    obs = generate_observations(design, theta_star, 0.3, rng)
    result = fit(obs, PenaltySpec(SCAD, 0.05, 3.7), SolverConfig(max_iter=3, tol=1e-14))
    assert not result.converged
    assert result.iterations == 3


def test_fit_divergence_raises_named_iteration():
    rng = np.random.default_rng(12)
    design = sample_sensing_design(rng, 4, 4, 20)
    theta_star = rng.standard_normal((4, 4))
    obs = generate_observations(design, theta_star, 0.1, rng)
    # a fixed step far above 2/L makes the gradient iteration blow up
    config = SolverConfig(eta=1e6, max_iter=200)
    with pytest.raises(DivergenceError, match="iteration"):
        fit(obs, PenaltySpec(SCAD, 1e-6, 3.7), config)


def test_fit_rejects_a_non_finite_final_residual():
    # a 5 x 4 completion with one observation at 1e308: the iteration stops
    # on a finite objective after two steps, but the residual's gradient step
    # (eta = 20) overflows; the fit must not report that as converged
    cells = [(j, k) for j in range(5) for k in range(4)]
    y = np.array([1e308 if cell == (1, 0) else 0.5 * cell[0] - 0.3 * cell[1] for cell in cells])
    obs = ObservationSet(CompletionDesign(m1=5, m2=4, entries=np.array(cells)), y, sigma=0.2)
    lam = standard_lambda("completion", 0.2, 5, 4, len(cells), 2.0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="residual"):
        fit(obs, PenaltySpec(SCAD, lam, 3.7), SolverConfig(max_iter=30))


def test_fit_box_constraint_clips():
    rng = np.random.default_rng(13)
    theta_star, _, _ = random_low_rank(rng, 6, 6, [4.0, 2.0])
    design = full_observation_design(6, 6)
    obs = generate_observations(design, theta_star, 0.0, rng)
    alpha = 0.5 * np.abs(theta_star).max()
    result = fit(obs, PenaltySpec(SCAD, 1e-6, 3.7), SolverConfig(alpha_star=alpha))
    assert np.abs(result.theta_hat).max() <= alpha + 1e-12


@pytest.mark.parametrize(
    "model,warm_start,box",
    [
        ("completion", "zero", False),
        ("completion", "nuclear", False),
        ("completion", "nuclear", True),
        ("sensing", "nuclear", False),
        ("sensing", "zero", True),
    ],
)
def test_fit_spectrum_matches_svd_of_estimate(model, warm_start, box):
    # the reported spectrum comes from the last prox step (an SVD only after
    # the box clip); it must be the spectrum of theta_hat and give its rank
    rng = np.random.default_rng(15)
    theta_star, _, _ = random_low_rank(rng, 8, 7, [3.0, 1.5])
    if model == "completion":
        design = sample_completion_design(rng, 8, 7, 150)
    else:
        design = sample_sensing_design(rng, 8, 7, 120)
    obs = generate_observations(design, theta_star, 0.2, rng)
    alpha = 0.8 * np.abs(theta_star).max() if box else None
    config = SolverConfig(warm_start=warm_start, alpha_star=alpha)
    result = fit(obs, PenaltySpec(SCAD, 0.05, 3.7), config)
    s = np.linalg.svd(result.theta_hat, compute_uv=False)
    assert result.spectrum.shape == s.shape
    assert np.abs(result.spectrum - s).max() <= 1e-12 * s[0]
    assert result.rank_hat == numeric_rank(s, config.rank_tol_rel)
    assert 0 < result.rank_hat < s.size


def test_warm_start_never_worse_logged_not_failed():
    rng = np.random.default_rng(15)
    findings = 0
    for _ in range(50):
        m = 6
        theta_star, _, _ = random_low_rank(rng, m, m, [2.0, 1.0])
        design = sample_sensing_design(rng, m, m, 90)
        obs = generate_observations(design, theta_star, 0.3, rng)
        spec = PenaltySpec(SCAD, 0.15, 3.7)
        base = SolverConfig(max_iter=600, tol=1e-8)
        from dataclasses import replace

        warm = fit(obs, spec, replace(base, warm_start="nuclear"))
        cold = fit(obs, spec, base)
        if objective(obs, spec, warm.theta_hat) > objective(obs, spec, cold.theta_hat) + 1e-9:
            findings += 1
    if findings:
        warnings.warn(
            f"nuclear warm start ended above the zero start on {findings}/50 instances",
            stacklevel=1,
        )


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
        "eta", "restarts",
    }
    assert doc["rank_hat"] == result.rank_hat
    assert doc["eta"] == result.eta == 16.0  # 1/L with L = max(count)/n = 1/16
    assert doc["restarts"] == result.restarts >= 0
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

    def counted(z, block, threshold):
        out = original(z, block, threshold)
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
    _, _, block = solver_module._prox_svd(spec, nearby, eta)
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
    _, _, block = solver_module._prox_svd(spec, z + 1e-6, eta)
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
    _, _, block = solver_module._prox_svd(spec, z, 1.0)
    outcomes = count_truncated(monkeypatch)
    theta, _, _ = solver_module._prox_svd(spec, z, 1.0, block)
    assert outcomes == []
    assert np.array_equal(theta, prox_spectral(spec, z, 1.0))


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
    config = SolverConfig(warm_start="nuclear")

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
