import math

import numpy as np
import pytest

from lowrankpen import theory
from lowrankpen.operators import (
    Subspace,
    apply_adjoint,
    apply_forward,
    apply_hessian,
    generate_observations,
    loss_gradient,
    project_complement,
    project_onto,
    quadratic_form,
    sample_completion_design,
    sample_sensing_design,
)
from lowrankpen.theory import (
    CONE_FACTOR,
    CurvatureConditionError,
    cone_condition,
    error_bound_general,
    lambda_completion,
    lambda_oracle_rule,
    lambda_sensing,
    oracle_condition_gap,
    probe_rsc,
    split_spectrum,
    tau_value,
    weyl_gap,
)

from conftest import bisection_blend, full_observation_design, random_low_rank
from constants import WEYL_SLACK


def test_split_spectrum():
    split = split_spectrum([5.0, 2.0, 0.5, 0.0], 1.0)
    assert split.s == (0, 1, 2)
    assert split.s1 == (0, 1)
    assert split.s2 == (2,)
    assert (split.r, split.r1, split.r2) == (3, 2, 1)


def test_split_spectrum_all_large_and_empty():
    split = split_spectrum([4.0, 3.0, 2.0], 1.0)
    assert split.r2 == 0 and split.r1 == 3
    empty = split_spectrum([0.0, 0.0], 1.0)
    assert empty.r == 0
    # boundary value belongs to the large group
    assert split_spectrum([1.0], 1.0).s1 == (0,)
    with pytest.raises(ValueError):
        split_spectrum([-1.0], 1.0)


def test_error_bound_general_arithmetic():
    report = error_bound_general(0.1, 0.5, 1.0, 0.5, 4, 1)
    assert report.part_s1 == pytest.approx(0.4)
    assert report.part_s2 == pytest.approx(3.0)
    assert report.total == pytest.approx(3.4)

    # best case r2=0 at zeta = kappa/2 reproduces the rate 2*tau*sqrt(r)/kappa
    best = error_bound_general(0.1, 0.5, 1.0, 0.5, 4, 0)
    assert best.total == pytest.approx(2 * 0.1 * 2 / 1.0)

    half = error_bound_general(0.2, 0.3, 0.8, 0.4, 3, 2)
    expected = 2 * 0.2 * math.sqrt(3) / 0.8 + 6 * 0.3 * math.sqrt(2) / 0.8
    assert half.total == pytest.approx(expected)

    with pytest.raises(CurvatureConditionError):
        error_bound_general(0.1, 0.5, 0.4, 0.5, 1, 0)


def test_oracle_condition_gap():
    assert oracle_condition_gap([1.0, 2.0], 1.0, 2, 0.0, 0.5) == pytest.approx(0.0)
    # adjoint-noise term 2*sqrt(r)*(adj/n)/kappa set to 0.3
    gap = oracle_condition_gap([2.0, 3.0], 1.0, 4, 0.3 * 0.5 / 4.0, 0.5)
    assert gap == pytest.approx(0.7)
    with pytest.raises(ValueError):
        oracle_condition_gap([0.0], 1.0, 1, 0.1, 0.5)


def test_oracle_condition_gap_recomputable_from_noise():
    rng = np.random.default_rng(31)
    m, r = 10, 2
    theta_star, u, v = random_low_rank(rng, m, m, [3.0, 2.0])
    design = sample_completion_design(rng, m, m, 300)
    obs = generate_observations(design, theta_star, 0.2, rng)
    eps = obs.y - apply_forward(design, theta_star)
    adj = float(np.linalg.norm(apply_adjoint(design, eps), 2))
    kappa = 1.0 / (m * m)
    gap = oracle_condition_gap([3.0, 2.0], 1.0, r, adj / design.n, kappa)
    assert gap == pytest.approx(2.0 - 1.0 - 2 * math.sqrt(r) * adj / (design.n * kappa))


def test_lambda_rules_arithmetic():
    assert lambda_completion(0.5, 40, 40, 1000, 2.0) == pytest.approx(9.603e-3, rel=1e-3)
    lam = lambda_sensing(sigma=0.5, m1=20, m2=45, n=400, c=2.0)
    assert lam == pytest.approx(2.0 * 0.5 * (math.sqrt(20 / 400) + math.sqrt(45 / 400)))
    assert lambda_completion(0.0, 40, 40, 1000) == 0.0
    assert lambda_sensing(0.0, 20, 20, 400) == 0.0


def test_lambda_oracle_rules():
    # base rule: c * adj * (1 + sqrt(r) * rho / kappa)
    assert lambda_oracle_rule(0.1, 4, 1.0, 0.5, 2.0) == pytest.approx(0.2 * (1 + 4.0))
    with pytest.raises(ValueError):
        lambda_oracle_rule(0.1, 4, 1.0, 0.0)


def test_cone_condition_extremes():
    rng = np.random.default_rng(2)
    _, u, v = random_low_rank(rng, 8, 7, [2.0, 1.0])
    sub = Subspace(u, v)
    aligned = u @ rng.standard_normal((2, 2)) @ v.T
    ratio, in_cone = cone_condition(aligned, sub)
    assert ratio <= 1e-10 and in_cone

    g = rng.standard_normal((8, 7))
    comp = project_complement(sub, g)
    ratio, in_cone = cone_condition(comp, sub)
    assert not in_cone and ratio > 1e6


def test_cone_condition_boundary_by_bisection():
    rng = np.random.default_rng(3)
    _, u, v = random_low_rank(rng, 8, 8, [2.0, 1.0])
    sub = Subspace(u, v)
    g = rng.standard_normal((8, 8))
    aligned = project_onto(sub, g)
    comp = project_complement(sub, rng.standard_normal((8, 8)))

    def ratio_at(alpha):
        return cone_condition(aligned + alpha * comp, sub)[0]

    lo, hi = 0.0, 100.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ratio_at(mid) <= 5.0:
            lo = mid
        else:
            hi = mid
    assert ratio_at(lo) == pytest.approx(5.0, abs=1e-6)
    assert cone_condition(aligned + lo * comp, sub)[1]
    assert not cone_condition(aligned + hi * comp, sub)[1]


def test_probe_rsc_full_observation_is_exact():
    rng = np.random.default_rng(4)
    m1 = m2 = 5
    design = full_observation_design(m1, m2)
    _, u, v = random_low_rank(rng, m1, m2, [2.0, 1.0])
    probe = probe_rsc(design, Subspace(u, v), 50, rng)
    assert probe.kappa_hat == pytest.approx(1.0 / design.n, abs=1e-12)
    assert probe.rho_hat == pytest.approx(1.0 / design.n, abs=1e-12)


def test_probe_rsc_sensing_concentration():
    # n = 20 m^2: the cone's curvature concentrates near 1, and the probe of
    # a sensing design widens its sampled range by the refined extrema
    rng = np.random.default_rng(5)
    m, r, n = 10, 2, 2000
    _, u, v = random_low_rank(rng, m, m, np.ones(r))
    sub = Subspace(u, v)
    design = sample_sensing_design(rng, m, m, n)
    low, high = theory._refined_extrema(design, sub)
    assert 0.5 <= low <= high <= 1.5
    probe = probe_rsc(design, sub, 500, rng)
    assert 0.5 <= probe.kappa_hat <= low
    assert high <= probe.rho_hat <= 1.5


def test_probe_rsc_refinement_finds_null_directions():
    # with fewer measurements than cells the cone meets the null space, so
    # the refined curvature floor collapses while random cone directions
    # stay near 1; the probe reports the floor
    rng = np.random.default_rng(7)
    m, n = 12, 100  # d = 144 > n
    _, u, v = random_low_rank(rng, m, m, [2.0, 1.0, 0.5])
    sub = Subspace(u, v)
    design = sample_sensing_design(rng, m, m, n)
    aligned = project_onto(sub, np.random.default_rng(8).standard_normal((200, m, m)))
    aligned /= np.linalg.norm(aligned, axis=(1, 2))[:, None, None]
    assert quadratic_form(design, aligned).min() > 0.3
    low, _ = theory._refined_extrema(design, sub)
    assert low <= 1e-8
    assert probe_rsc(design, sub, 200, np.random.default_rng(8)).kappa_hat == low


def test_refined_minimum_is_zero_on_a_null_direction():
    # one measurement of a 2 x 2 matrix with r = 2: the cone is the whole space
    # and holds a 3-dim null space, so the refined minimum is exactly 0, not
    # the rounding left in the quadratic form of a null direction; every unit
    # direction is aligned, so the refined maximum is the Gram matrix's top
    # eigenvalue whichever direction the blocks pick
    sub = Subspace(np.eye(2), np.eye(2))
    for seed in range(8):
        design = sample_sensing_design(np.random.default_rng(seed), 2, 2, 1)
        low, high = theory._refined_extrema(design, sub)
        assert low == 0.0
        assert high == pytest.approx(np.linalg.eigvalsh(design.gram)[-1], rel=1e-12)


def test_feasible_blend_lands_on_the_cone_boundary():
    # scaling the out-of-core part D - P(D) of a direction outside the cone by
    # min(1, 5/ratio), as the refinement does, puts its ratio at 5 with the
    # bisection blend's value, which the curvature model gives from the parts
    rng = np.random.default_rng(14)
    m, n = 8, 40
    _, u, v = random_low_rank(rng, m, m, [2.0, 1.0])
    sub = Subspace(u, v)
    design = sample_sensing_design(rng, m, m, n)
    outside = 0
    for _ in range(50):
        direction = rng.standard_normal((m, m))
        direction /= np.linalg.norm(direction)
        ratio, in_cone = cone_condition(direction, sub)
        if in_cone:
            continue
        outside += 1
        aligned = project_onto(sub, direction)
        rest = direction - aligned
        s = min(1.0, CONE_FACTOR / ratio)
        blend = aligned + s * rest
        assert cone_condition(blend, sub)[0] == pytest.approx(CONE_FACTOR, abs=1e-12)
        value = quadratic_form(design, blend / np.linalg.norm(blend))
        assert value == pytest.approx(bisection_blend(design, sub, direction), rel=1e-8)
        a, b, c = (
            float(np.vdot(x, apply_hessian(design, y)))
            for x, y in ((aligned, aligned), (aligned, rest), (rest, rest))
        )
        mass = float(np.vdot(aligned, aligned))
        model = theory._curvature_model(a, b, c, mass, 1.0 - mass, s)
        assert model == pytest.approx(value, rel=1e-10)
    assert outside >= 25


def test_probe_rsc_stability_across_seeds():
    rng = np.random.default_rng(9)
    m, n = 10, 2000
    _, u, v = random_low_rank(rng, m, m, [1.0, 1.0])
    sub = Subspace(u, v)
    design = sample_sensing_design(rng, m, m, n)
    a = probe_rsc(design, sub, 500, np.random.default_rng(1))
    b = probe_rsc(design, sub, 500, np.random.default_rng(2))
    assert abs(a.kappa_hat - b.kappa_hat) <= 0.1 * a.kappa_hat
    assert abs(a.rho_hat - b.rho_hat) <= 0.1 * a.rho_hat


def test_tau_value_noiseless_and_contraction():
    rng = np.random.default_rng(10)
    m, r = 10, 3
    theta_star, u, v = random_low_rank(rng, m, m, [3.0, 2.0, 1.0])
    design = sample_completion_design(rng, m, m, 400)
    exact = generate_observations(design, theta_star, 0.0, rng)
    sub = Subspace(u, v)
    assert tau_value(loss_gradient(exact, theta_star), sub) == pytest.approx(0.0, abs=1e-14)

    noisy = generate_observations(design, theta_star, 0.4, rng)
    grad = loss_gradient(noisy, theta_star)
    tau = tau_value(grad, sub)
    assert tau <= np.linalg.norm(grad, 2) + 1e-12
    empty = Subspace(u[:, :0], v[:, :0])
    assert tau_value(grad, empty) == 0.0


def test_tau_scaling_slope_in_n():
    # projected gradient noise should shrink like n^{-1/2}
    rng = np.random.default_rng(11)
    m, r, sigma = 15, 3, 0.5
    ns = [400, 800, 1600, 3200]
    means = []
    for n in ns:
        taus = []
        for _ in range(50):
            theta_star, u, v = random_low_rank(rng, m, m, [3.0, 2.0, 1.0])
            design = sample_completion_design(rng, m, m, n)
            obs = generate_observations(design, theta_star, sigma, rng)
            taus.append(tau_value(loss_gradient(obs, theta_star), Subspace(u, v)))
        means.append(np.mean(taus))
    slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_weyl_gap():
    assert weyl_gap(np.diag([3.0, 1.0]), np.diag([3.0, 1.0])) == pytest.approx(0.0, abs=1e-14)
    assert weyl_gap(np.diag([3.0, 1.0]), np.diag([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(200):
        m1 = int(rng.integers(2, 8))
        m2 = int(rng.integers(2, 8))
        a = rng.standard_normal((m1, m2))
        b = rng.standard_normal((m1, m2))
        assert weyl_gap(a, b) <= WEYL_SLACK
    with pytest.raises(ValueError):
        weyl_gap(np.zeros((2, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("side", [0, 1])
def test_weyl_gap_rejects_a_non_finite_matrix(bad, side):
    pair = [np.ones((3, 3)), np.eye(3)]
    pair[side][0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        weyl_gap(*pair)
