import numpy as np
import pytest

from lowrankpen.operators import (
    CompletionDesign,
    ObservationSet,
    SensingDesign,
    Subspace,
    apply_adjoint,
    apply_forward,
    generate_observations,
    loss_gradient,
    loss_value,
    project_complement,
    project_onto,
    quadratic_form,
    row_grams,
    sample_completion_design,
    sample_sensing_design,
    subspace_hessian,
)

from conftest import reference_adjoint, reference_forward, random_low_rank
from constants import ADJOINT_TOL, MODEL_TOL, PROJECTION_TOL


def test_completion_design_validation():
    with pytest.raises(ValueError):
        CompletionDesign(2, 2, np.array([[0, 2]]))
    with pytest.raises(ValueError):
        CompletionDesign(2, 2, np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        CompletionDesign(2, 2, np.zeros((0, 2), dtype=int))


def test_forward_completion_reads_entries():
    design = CompletionDesign(2, 2, np.array([[0, 1]]))
    theta = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert apply_forward(design, theta).tolist() == [2.0]


def test_forward_sensing_inner_product():
    m1, m2 = 3, 4
    x1 = np.zeros((m1, m2))
    np.fill_diagonal(x1, 1.0)
    design = SensingDesign(m1, m2, x1[None])
    theta = np.eye(m1, m2)
    assert apply_forward(design, theta).tolist() == [min(m1, m2)]


def test_forward_linear_at_zero():
    rng = np.random.default_rng(0)
    design = sample_sensing_design(rng, 4, 5, 7)
    assert np.all(apply_forward(design, np.zeros((4, 5))) == 0.0)


def test_adjoint_scatter_and_duplicates():
    design = CompletionDesign(2, 2, np.array([[0, 1]]))
    assert apply_adjoint(design, np.array([1.0])).tolist() == [[0.0, 1.0], [0.0, 0.0]]
    dup = CompletionDesign(2, 2, np.array([[0, 0], [0, 0]]))
    assert apply_adjoint(dup, np.array([1.0, 1.0])).tolist() == [[2.0, 0.0], [0.0, 0.0]]


def test_adjointness_both_design_kinds():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m1 = int(rng.integers(2, 7))
        m2 = int(rng.integers(2, 7))
        n = int(rng.integers(1, 30))
        if rng.random() < 0.5:
            design = sample_completion_design(rng, m1, m2, n)
        else:
            design = sample_sensing_design(rng, m1, m2, n)
        theta = rng.standard_normal((m1, m2))
        v = rng.standard_normal(n)
        lhs = float(apply_forward(design, theta) @ v)
        rhs = float(np.sum(theta * apply_adjoint(design, v)))
        assert abs(lhs - rhs) <= ADJOINT_TOL * max(1.0, abs(lhs))


def test_completion_matches_dense_reference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m1 = int(rng.integers(2, 6))
        m2 = int(rng.integers(2, 6))
        design = sample_completion_design(rng, m1, m2, int(rng.integers(1, 20)))
        theta = rng.standard_normal((m1, m2))
        v = rng.standard_normal(design.n)
        assert np.array_equal(apply_forward(design, theta), reference_forward(design, theta))
        assert np.array_equal(apply_adjoint(design, v), reference_adjoint(design, v))


def test_loss_exact_fit_and_hand_case():
    rng = np.random.default_rng(1)
    design = sample_completion_design(rng, 3, 3, 12)
    theta = rng.standard_normal((3, 3))
    obs = ObservationSet(design, apply_forward(design, theta))
    assert loss_value(obs, theta) == pytest.approx(0.0, abs=1e-30)
    assert np.abs(loss_gradient(obs, theta)).max() <= 1e-15

    single = CompletionDesign(2, 2, np.array([[0, 0]]))
    obs2 = ObservationSet(single, np.array([3.0]))
    theta0 = np.zeros((2, 2))
    assert loss_value(obs2, theta0) == pytest.approx(4.5)
    assert loss_gradient(obs2, theta0).tolist() == [[-3.0, 0.0], [0.0, 0.0]]


def test_loss_exact_fit_sensing():
    rng = np.random.default_rng(2)
    design = sample_sensing_design(rng, 4, 5, 60)
    theta_star = rng.standard_normal((4, 5))
    obs = generate_observations(design, theta_star, 0.0, rng)
    loss_scale = float(obs.y @ obs.y) / (2 * design.n)
    assert abs(loss_value(obs, theta_star)) <= 1e-12 * loss_scale
    grad_scale = float(np.linalg.norm(obs.xty))
    assert np.linalg.norm(loss_gradient(obs, theta_star)) <= 1e-12 * grad_scale


def test_quadratic_model_matches_reference_maps():
    # the cached Hessian statistics against the explicit X_i stack: sensing
    # with n below and above m1*m2, completion with duplicate cells
    rng = np.random.default_rng(31)
    for trial in range(60):
        m1, m2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        d = m1 * m2
        kind = trial % 3
        if kind == 0:
            design = sample_sensing_design(rng, m1, m2, int(rng.integers(1, d)))
        elif kind == 1:
            design = sample_sensing_design(rng, m1, m2, int(rng.integers(d, 3 * d)))
        else:
            design = sample_completion_design(rng, m1, m2, int(rng.integers(2 * d, 4 * d)))
            assert len(np.unique(design.entries, axis=0)) < design.n
        theta_star, theta, delta = (rng.standard_normal((m1, m2)) for _ in range(3))
        obs = generate_observations(design, theta_star, 0.5, rng)
        # the model's X*(y)/n is the adjoint itself, bit for bit
        assert np.array_equal(obs.xty, apply_adjoint(design, obs.y) / design.n)

        resid = reference_forward(design, theta) - obs.y
        grad_ref = reference_adjoint(design, resid) / design.n
        loss_ref = float(resid @ resid) / (2 * design.n)
        img = reference_forward(design, delta)
        curvature_ref = float(img @ img) / design.n

        grad = loss_gradient(obs, theta)
        assert np.abs(grad - grad_ref).max() <= MODEL_TOL * max(1.0, np.abs(grad_ref).max())
        assert abs(loss_value(obs, theta) - loss_ref) <= MODEL_TOL * max(1.0, loss_ref)
        curvature = quadratic_form(design, delta)
        assert abs(curvature - curvature_ref) <= MODEL_TOL * max(1.0, curvature_ref)


@pytest.mark.parametrize("model", ["completion", "sensing"])
def test_subspace_hessian_matches_explicit_design(model):
    # K^T H K against the explicit maps: column a*r + b of the reduced design
    # is X(u_a v_b^T), and the Hessian over C is its Gram matrix over n
    rng = np.random.default_rng(36)
    m1, m2, r = 7, 5, 3
    if model == "completion":
        design = sample_completion_design(rng, m1, m2, 60)
    else:
        design = sample_sensing_design(rng, m1, m2, 50)
    _, u, v = random_low_rank(rng, m1, m2, [3.0, 2.0, 1.0])
    reduced = np.column_stack(
        [reference_forward(design, np.outer(u[:, a], v[:, b])) for a in range(r) for b in range(r)]
    )
    reference = reduced.T @ reduced / design.n
    got = subspace_hessian(design, Subspace(u, v))
    assert np.abs(got - reference).max() <= MODEL_TOL * np.abs(reference).max()


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    design = sample_sensing_design(rng, 3, 4, 15)
    theta_star = rng.standard_normal((3, 4))
    obs = generate_observations(design, theta_star, 0.3, rng)
    theta = rng.standard_normal((3, 4))
    grad = loss_gradient(obs, theta)
    h = 1e-6
    fd = np.zeros_like(theta)
    for j in range(3):
        for k in range(4):
            e = np.zeros_like(theta)
            e[j, k] = h
            fd[j, k] = (loss_value(obs, theta + e) - loss_value(obs, theta - e)) / (2 * h)
    assert np.abs(grad - fd).max() <= 1e-4


def test_gradient_at_truth_is_adjoint_noise():
    rng = np.random.default_rng(9)
    design = sample_completion_design(rng, 5, 5, 40)
    theta_star = rng.standard_normal((5, 5))
    obs = generate_observations(design, theta_star, 0.5, rng)
    eps = obs.y - apply_forward(design, theta_star)
    expected = -apply_adjoint(design, eps) / design.n
    assert np.abs(loss_gradient(obs, theta_star) - expected).max() <= 1e-12


def test_subspace_validation_and_projections():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))

    u = np.array([[1.0], [0.0]])
    sub = Subspace(u, u)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert project_onto(sub, a).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert project_complement(sub, a).tolist() == [[0.0, 0.0], [0.0, 4.0]]


def test_projection_of_aligned_matrix_is_identity():
    rng = np.random.default_rng(12)
    _, u, v = random_low_rank(rng, 6, 5, [2.0, 1.0])
    sub = Subspace(u, v)
    a = u @ rng.standard_normal((2, 2)) @ v.T
    assert np.abs(project_onto(sub, a) - a).max() <= PROJECTION_TOL
    assert np.abs(project_complement(sub, a)).max() <= PROJECTION_TOL


def test_projection_algebra():
    rng = np.random.default_rng(13)
    for _ in range(20):
        _, u, v = random_low_rank(rng, 7, 6, [3.0, 2.0, 1.0])
        sub = Subspace(u, v)
        a = rng.standard_normal((7, 6))
        p = project_onto(sub, a)
        q = project_complement(sub, a)
        assert np.abs(project_onto(sub, p) - p).max() <= ADJOINT_TOL
        assert np.abs(project_onto(sub, q)).max() <= ADJOINT_TOL
        # Pythagoras for the orthogonal split induced by the aligned part
        lhs = np.linalg.norm(p) ** 2 + np.linalg.norm(a - p) ** 2
        assert lhs == pytest.approx(np.linalg.norm(a) ** 2, abs=PROJECTION_TOL)


def test_sample_completion_statistics():
    rng = np.random.default_rng(100)
    m1 = m2 = 10
    n = 100_000
    design = sample_completion_design(rng, m1, m2, n)
    counts = np.zeros((m1, m2))
    np.add.at(counts, (design.entries[:, 0], design.entries[:, 1]), 1.0)
    p = 1.0 / (m1 * m2)
    sigma = np.sqrt(n * p * (1 - p))
    assert counts.sum() == n
    # every cell within 5 binomial sigmas; a fixed reference cell within 3
    assert np.abs(counts - n * p).max() <= 5 * sigma
    assert abs(counts[3, 7] - n * p) <= 3 * sigma


def test_sample_completion_determinism():
    d1 = sample_completion_design(np.random.default_rng(77), 6, 4, 50)
    d2 = sample_completion_design(np.random.default_rng(77), 6, 4, 50)
    assert np.array_equal(d1.entries, d2.entries)


def test_sample_completion_single_draw_in_range():
    design = sample_completion_design(np.random.default_rng(1), 3, 5, 1)
    assert design.n == 1
    j, k = design.entries[0]
    assert 0 <= j < 3 and 0 <= k < 5
    with pytest.raises(ValueError):
        sample_completion_design(np.random.default_rng(1), 3, 5, 0)


def test_sample_sensing_variance():
    rng = np.random.default_rng(5)
    design = sample_sensing_design(rng, 10, 10, 1000)
    assert design.matrices.reshape(-1).var() == pytest.approx(1.0, abs=0.02)

    scale = 2.0 * np.eye(100)
    rng = np.random.default_rng(6)
    scaled = sample_sensing_design(rng, 10, 10, 1000, ensemble="cholesky", cholesky=scale)
    assert scaled.matrices.reshape(-1).var() == pytest.approx(4.0, abs=0.1)


def test_sample_sensing_determinism():
    d1 = sample_sensing_design(np.random.default_rng(33), 4, 5, 6)
    d2 = sample_sensing_design(np.random.default_rng(33), 4, 5, 6)
    assert np.array_equal(d1.matrices, d2.matrices)


def test_sample_sensing_rejects_bad_factor():
    rng = np.random.default_rng(0)
    bad = np.eye(4)
    bad[0, 1] = 1.0  # upper-triangular entry
    with pytest.raises(ValueError):
        sample_sensing_design(rng, 2, 2, 3, ensemble="cholesky", cholesky=bad)
    neg = -np.eye(4)
    with pytest.raises(ValueError):
        sample_sensing_design(rng, 2, 2, 3, ensemble="cholesky", cholesky=neg)


def test_generate_observations_exact_and_noisy():
    rng = np.random.default_rng(21)
    design = sample_completion_design(rng, 8, 8, 100_000)
    theta = rng.standard_normal((8, 8))
    exact = generate_observations(design, theta, 0.0, rng)
    assert np.array_equal(exact.y, apply_forward(design, theta))

    sigma = 0.7
    noisy = generate_observations(design, theta, sigma, np.random.default_rng(22))
    resid = noisy.y - apply_forward(design, theta)
    assert resid.var() == pytest.approx(sigma**2, rel=0.05)

    a = generate_observations(design, theta, sigma, np.random.default_rng(9))
    b = generate_observations(design, theta, sigma, np.random.default_rng(9))
    assert np.array_equal(a.y, b.y)


def test_row_grams_match_per_row_products():
    rng = np.random.default_rng(37)
    weights = rng.uniform(0.0, 1.0, (6, 9))
    frame = rng.standard_normal((9, 3))
    got = row_grams(weights, frame)
    assert got.shape == (6, 3, 3)
    for j in range(6):
        reference = frame.T @ np.diag(weights[j]) @ frame
        assert np.abs(got[j] - reference).max() <= 1e-14 * np.abs(reference).max()
