import math
import tracemalloc

import numpy as np
import pytest

import lowrankpen.penalty as penalty_module
from lowrankpen.penalty import (
    MCP,
    NUCLEAR,
    SCAD,
    PenaltySpec,
    check_regularity,
    concave_part_value,
    penalty_derivative,
    penalty_value,
    scalar_prox,
)

from conftest import prox_grid_oracle
from constants import FD_STEP, FD_TOL, KNOT_DISTANCE, PROX_ORACLE_TOL

SCAD_REF = PenaltySpec(SCAD, 1.0, 3.7)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(SCAD, 1.0, 2.0)  # SCAD needs b > 2
    with pytest.raises(ValueError):
        PenaltySpec(MCP, 1.0, 1.0)  # MCP needs b > 1
    with pytest.raises(ValueError):
        PenaltySpec(NUCLEAR, 0.0)
    with pytest.raises(ValueError):
        PenaltySpec("ridge", 1.0)


def branch_penalty(spec, t):
    """The penalty element by element, each value by the one branch formula
    its |t| selects: an independent reference for the nested np.where of
    :func:`penalty_value`, which evaluates every branch everywhere."""
    lam, b = spec.lam, spec.b

    def one(x):
        a = abs(x)
        if spec.family == SCAD:
            if a <= lam:
                return lam * a
            if a <= b * lam:
                return -(a * a - 2.0 * b * lam * a + lam * lam) / (2.0 * (b - 1.0))
            return (b + 1.0) * lam * lam / 2.0
        if a <= b * lam:
            return lam * a - a * a / (2.0 * b)
        return b * lam * lam / 2.0

    arr = np.asarray(t, dtype=float)
    return np.array([one(float(x)) for x in arr.ravel()]).reshape(arr.shape)


@pytest.mark.parametrize("family,b", [(SCAD, 3.7), (SCAD, 2.01), (MCP, 2.5), (MCP, 1.01)])
def test_masked_penalty_matches_the_nested_where_bitwise(family, b):
    # the per-element branch reference against the library's nested where, on
    # both sides of each knot, at +-1e308 (where the unselected branches
    # overflow) and at +-inf (inf - inf there); pytest turns a RuntimeWarning
    # from either into an error
    rng = np.random.default_rng(48)
    spec = PenaltySpec(family, 0.7, b)
    knots = np.array([0.0, spec.lam, b * spec.lam])
    near = np.concatenate([np.nextafter(knots, -np.inf), knots, np.nextafter(knots, np.inf)])
    arrays = [
        rng.uniform(-3.0 * b, 3.0 * b, 10000),
        np.concatenate([near, -near, knots * (1.0 + 1e-12), [1e308, -1e308, np.inf, -np.inf]]),
        rng.uniform(-3.0 * b, 3.0 * b, (7, 11)),
    ]
    for t in arrays:
        got = penalty_value(spec, t)
        assert got.shape == t.shape
        assert np.array_equal(got, branch_penalty(spec, t))
    for t in near:
        assert penalty_value(spec, float(t)) == float(branch_penalty(spec, t))


def test_derived_constants():
    assert SCAD_REF.nu == pytest.approx(3.7)
    assert SCAD_REF.zeta_minus == pytest.approx(1 / 2.7)
    mcp = PenaltySpec(MCP, 0.5, 2.0)
    assert mcp.nu == pytest.approx(1.0)
    assert mcp.zeta_minus == pytest.approx(0.5)
    nuc = PenaltySpec(NUCLEAR, 1.0)
    assert math.isinf(nuc.nu)
    assert nuc.zeta_minus == 0.0


def test_scad_values():
    assert penalty_value(SCAD_REF, 0.0) == 0.0
    assert penalty_value(SCAD_REF, 0.5) == pytest.approx(0.5)
    # quadratic branch: -(4 - 14.8 + 1) / (2 * 2.7)
    assert penalty_value(SCAD_REF, 2.0) == pytest.approx(9.8 / 5.4)
    # flat branch: (b + 1) * lambda^2 / 2
    assert penalty_value(SCAD_REF, 10.0) == pytest.approx(2.35)
    assert penalty_value(SCAD_REF, -2.0) == pytest.approx(9.8 / 5.4)


def test_spline_continuity_at_knots():
    for spec in (SCAD_REF, PenaltySpec(SCAD, 0.3, 2.4), PenaltySpec(MCP, 0.7, 1.8)):
        for knot in (spec.lam, spec.b * spec.lam):
            below = penalty_value(spec, knot - 1e-13)
            above = penalty_value(spec, knot + 1e-13)
            assert abs(above - below) <= 1e-12


def test_scad_derivative():
    assert penalty_derivative(SCAD_REF, 5.0) == 0.0
    assert penalty_derivative(SCAD_REF, 0.5) == pytest.approx(1.0)
    assert penalty_derivative(SCAD_REF, 2.0) == pytest.approx(1.7 / 2.7)
    with pytest.raises(ValueError):
        penalty_derivative(SCAD_REF, 0.0)
    with pytest.raises(ValueError):
        penalty_derivative(SCAD_REF, -1.0)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    specs = [
        SCAD_REF,
        PenaltySpec(SCAD, 0.4, 2.8),
        PenaltySpec(MCP, 1.3, 2.5),
        PenaltySpec(NUCLEAR, 0.8),
    ]
    for spec in specs:
        ts = rng.uniform(0.01, 2.0 * max(spec.b, 1.0) * spec.lam + 1.0, size=400)
        knots = [spec.lam, spec.b * spec.lam]
        keep = np.ones(ts.size, bool)
        for knot in knots:
            keep &= np.abs(ts - knot) > KNOT_DISTANCE
        ts = ts[keep]
        fd = (penalty_value(spec, ts + FD_STEP) - penalty_value(spec, ts - FD_STEP)) / (
            2 * FD_STEP
        )
        assert np.abs(penalty_derivative(spec, ts) - fd).max() <= FD_TOL


def test_concave_part_values():
    assert concave_part_value(SCAD_REF, 0.0) == 0.0
    assert concave_part_value(SCAD_REF, 0.5) == 0.0
    assert concave_part_value(SCAD_REF, 2.0) == pytest.approx(9.8 / 5.4 - 2.0)
    assert concave_part_value(SCAD_REF, 10.0) == pytest.approx(2.35 - 10.0)


def test_decomposition_identity_random():
    # p(t) == lambda*|t| + q(t) to machine precision across families
    rng = np.random.default_rng(11)
    for _ in range(10):
        lam = rng.uniform(0.1, 2.0)
        ts = rng.uniform(-8, 8, size=1000)
        for spec in (
            PenaltySpec(SCAD, lam, rng.uniform(2.01, 5.0)),
            PenaltySpec(MCP, lam, rng.uniform(1.01, 5.0)),
            PenaltySpec(NUCLEAR, lam),
        ):
            lhs = penalty_value(spec, ts)
            rhs = spec.lam * np.abs(ts) + concave_part_value(spec, ts)
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_flatness_beyond_nu():
    for spec in (SCAD_REF, PenaltySpec(MCP, 0.9, 3.0)):
        ts = np.linspace(spec.nu, spec.nu * 10, 50)
        vals = penalty_value(spec, ts)
        assert np.ptp(vals) == 0.0


def test_scalar_prox_reference_points():
    # frozen from the dense-grid oracle
    assert scalar_prox(SCAD_REF, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert scalar_prox(SCAD_REF, 1.5, 1.0) == pytest.approx(0.5)
    assert scalar_prox(SCAD_REF, 3.0, 1.0) == pytest.approx(4.4 / 1.7)
    assert scalar_prox(SCAD_REF, 5.0, 1.0) == pytest.approx(5.0)
    for z in (0.5, 1.5, 3.0, 5.0):
        oracle = prox_grid_oracle(SCAD_REF, z, 1.0)
        assert abs(scalar_prox(SCAD_REF, z, 1.0) - oracle) <= PROX_ORACLE_TOL


def test_scalar_prox_nuclear_is_soft_threshold():
    rng = np.random.default_rng(3)
    spec = PenaltySpec(NUCLEAR, 0.7)
    for z in rng.uniform(-4, 4, size=200):
        eta = rng.uniform(0.1, 2.0)
        soft = np.sign(z) * max(abs(z) - eta * spec.lam, 0.0)
        assert scalar_prox(spec, float(z), float(eta)) == pytest.approx(soft, abs=1e-12)


def test_scalar_prox_optimality_property():
    # f(prox) <= f(x) + 1e-8 over a dense grid, 1000 random cases
    rng = np.random.default_rng(17)
    for _ in range(1000):
        lam = rng.uniform(0.1, 2.0)
        b = rng.uniform(2.01, 5.0)
        eta = rng.uniform(0.1, 2.0)
        z = rng.uniform(-6, 6)
        spec = PenaltySpec(SCAD if rng.random() < 0.5 else MCP, lam, b)
        x_hat = scalar_prox(spec, z, eta)
        f_hat = 0.5 * (x_hat - z) ** 2 + eta * penalty_value(spec, x_hat)
        span = abs(z) + b * lam
        xs = np.arange(-span, span + 1e-4, 1e-4)
        f = 0.5 * (xs - z) ** 2 + eta * penalty_value(spec, xs)
        assert f_hat <= f.min() + 1e-8


def test_scalar_prox_odd_and_monotone():
    rng = np.random.default_rng(23)
    for spec in (SCAD_REF, PenaltySpec(MCP, 0.8, 2.2), PenaltySpec(NUCLEAR, 1.1)):
        for eta in (0.3, 1.0, 1.7):
            zs = rng.uniform(0, 8, size=100)
            for z in zs:
                assert scalar_prox(spec, -float(z), eta) == pytest.approx(
                    -scalar_prox(spec, float(z), eta), abs=1e-12
                )
            grid = np.linspace(-6, 6, 241)
            outs = [scalar_prox(spec, float(z), eta) for z in grid]
            assert np.all(np.diff(outs) >= -1e-10)


def test_scalar_prox_rejects_bad_input():
    with pytest.raises(ValueError):
        scalar_prox(SCAD_REF, math.nan, 1.0)
    with pytest.raises(ValueError):
        scalar_prox(SCAD_REF, 1.0, 0.0)


def test_check_regularity_scad():
    grid = np.linspace(0.01, 10.0, 1000)
    report = check_regularity(SCAD_REF, grid)
    assert report.all_passed
    assert report.curvature_bounded.witness == pytest.approx(1 / 2.7, abs=1e-6)


def test_check_regularity_mcp():
    grid = np.linspace(0.01, 10.0, 1000)
    report = check_regularity(PenaltySpec(MCP, 1.0, 2.0), grid)
    assert report.all_passed
    assert report.curvature_bounded.witness == pytest.approx(0.5, abs=1e-6)


def test_check_regularity_nuclear():
    grid = np.linspace(0.01, 10.0, 1000)
    report = check_regularity(PenaltySpec(NUCLEAR, 1.0), grid)
    assert not report.flat_beyond_nu.passed  # no finite flatness threshold
    assert report.curvature_bounded.passed
    assert report.zero_at_origin.passed
    assert report.derivative_within_lambda.passed
    assert not report.all_passed


def test_check_regularity_rejects_bad_grid():
    with pytest.raises(ValueError):
        check_regularity(SCAD_REF, [])
    with pytest.raises(ValueError):
        check_regularity(SCAD_REF, [0.0, 1.0])
    with pytest.raises(ValueError):
        check_regularity(SCAD_REF, [1.0, 0.5])


def all_pairs_curvature(spec, pts, qd):
    """Condition (ii) over every grid pair, as N x N arrays: (passed, witness)."""
    dq = qd[None, :] - qd[:, None]
    dt = pts[None, :] - pts[:, None]
    upper = dt > 0
    if not upper.any():
        return True, 0.0
    slack = np.where(upper, dq + spec.zeta_minus * dt, np.inf)
    slopes = np.where(upper, -dq / np.where(upper, dt, 1.0), -np.inf)
    return bool(slack.min() >= -1e-9), float(slopes.max())


@pytest.mark.parametrize("spec", [SCAD_REF, PenaltySpec(MCP, 0.7, 2.5), PenaltySpec(NUCLEAR, 1.3)],
                         ids=["scad", "mcp", "nuclear"])
def test_check_regularity_curvature_matches_all_pairs(spec, monkeypatch):
    # q' plus noise of 0 to a few times the 1e-9 tolerance, so that the
    # condition both passes and fails across the grids
    rng = np.random.default_rng(61)
    true_qd = penalty_module.concave_part_derivative
    flags = set()
    for noise in (0.0, 2e-10, 2e-9, 2e-8):
        for _ in range(4):
            pts = 0.005 + np.cumsum(rng.uniform(0.01, 0.1, int(rng.integers(2, 300))))
            qd = true_qd(spec, pts) + noise * rng.standard_normal(pts.size)
            monkeypatch.setattr(
                penalty_module,
                "concave_part_derivative",
                lambda s, t, qd=qd: qd if np.ndim(t) else true_qd(s, t),
            )
            got = check_regularity(spec, pts).curvature_bounded
            passed, witness = all_pairs_curvature(spec, pts, qd)
            assert got.passed == passed
            assert got.witness == pytest.approx(witness, rel=1e-12, abs=0.0)
            flags.add(passed)
    assert flags == {True, False}


def test_check_regularity_curvature_sees_a_two_step_violation(monkeypatch):
    # each neighbour pair misses by 0.6e-9, inside the tolerance; the pair
    # (1, 3) misses by 1.2e-9, outside it
    zeta = SCAD_REF.zeta_minus
    true_qd = penalty_module.concave_part_derivative

    def fake(s, t):
        return -(zeta + 0.6e-9) * (np.asarray(t) - 1.0) if np.ndim(t) else true_qd(s, t)

    monkeypatch.setattr(penalty_module, "concave_part_derivative", fake)
    pts = np.array([1.0, 2.0, 3.0])
    slack = np.diff(fake(SCAD_REF, pts)) + zeta * np.diff(pts)
    assert np.all((slack < 0) & (slack > -1e-9))
    assert not check_regularity(SCAD_REF, pts).curvature_bounded.passed


def test_check_regularity_memory_is_linear_in_the_grid():
    n = 2000
    grid = np.linspace(0.01, 10.0, n)
    tracemalloc.start()
    try:
        check_regularity(SCAD_REF, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * n
