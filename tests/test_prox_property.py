"""Property tests of the array prox against the per-value enumeration it replaced,
and of the closed-form convex prox against the array prox."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lowrankpen.penalty import MCP, NUCLEAR, SCAD, PenaltySpec, convex_prox, scalar_prox


def value(spec, x):
    """p(x) for x >= 0, branch by branch."""
    lam, b = spec.lam, spec.b
    if spec.family == NUCLEAR:
        return lam * x
    if spec.family == SCAD:
        if x <= lam:
            return lam * x
        if x <= b * lam:
            return -(x * x - 2.0 * b * lam * x + lam * lam) / (2.0 * (b - 1.0))
        return (b + 1.0) * lam * lam / 2.0
    if x <= b * lam:
        return lam * x - x * x / (2.0 * b)
    return b * lam * lam / 2.0


def enumeration_prox(spec, z, eta):
    """One value at a time: candidate points in increasing order, first strict minimum."""
    a = abs(z)
    lam, b = spec.lam, spec.b
    candidates = [0.0, a]
    if spec.family == NUCLEAR:
        candidates.append(a - eta * lam)
    elif spec.family == SCAD:
        candidates.extend([lam, b * lam, a - eta * lam])
        if (b - 1.0) - eta != 0.0:
            candidates.append(((b - 1.0) * a - eta * b * lam) / ((b - 1.0) - eta))
    else:
        candidates.append(b * lam)
        if b != eta:
            candidates.append(b * (a - eta * lam) / (b - eta))
    best_x, best_f = 0.0, 0.5 * a * a
    for x in sorted(set(c for c in candidates if c > 0 and math.isfinite(c))):
        f = 0.5 * (x - a) * (x - a) + eta * value(spec, x)
        if f < best_f:
            best_x, best_f = x, f
    return best_x if z >= 0 else -best_x


positive = st.floats(min_value=1e-3, max_value=10.0)


@st.composite
def prox_cases(draw):
    """(spec, eta, z array); eta hits b - 1 and b, z hits 0 and the knots."""
    family = draw(st.sampled_from([NUCLEAR, SCAD, MCP]))
    lam = draw(positive)
    if family == NUCLEAR:
        b = 0.0
        eta = draw(positive)
    else:
        low = 2.0 if family == SCAD else 1.0
        b = draw(st.floats(min_value=low, max_value=50.0, exclude_min=True))
        eta = draw(st.one_of(positive, st.sampled_from([b - 1.0, b])))
    knots = [0.0, lam, b * lam, eta * lam, (1.0 + eta) * lam]
    free = st.floats(min_value=-100.0, max_value=100.0).map(lambda u: u * lam)
    signed_knot = st.tuples(st.sampled_from(knots), st.sampled_from([1.0, -1.0]))
    zs = draw(st.lists(st.one_of(free, signed_knot.map(lambda p: p[0] * p[1])), min_size=1))
    return PenaltySpec(family, lam, b), eta, np.array(zs)


@given(prox_cases())
def test_array_prox_matches_enumeration_bitwise(case):
    spec, eta, zs = case
    got = scalar_prox(spec, zs, eta)
    want = np.array([enumeration_prox(spec, float(z), eta) for z in zs])
    assert got.shape == zs.shape
    assert got.tobytes() == want.tobytes()
    assert all(scalar_prox(spec, float(z), eta) == w for z, w in zip(zs, want))


@given(prox_cases())
def test_array_prox_is_odd_and_monotone(case):
    spec, eta, zs = case
    zs = np.sort(zs)
    out = scalar_prox(spec, zs, eta)
    assert np.all(scalar_prox(spec, -zs, eta) == -out)
    assert np.all(np.diff(out) >= 0.0)


@given(prox_cases())
def test_prox_never_shrinks_more_than_soft_threshold(case):
    # less shrinkage: every family keeps at least what the nuclear norm's
    # soft threshold keeps, up to rounding relative to |z| (the SCAD
    # stationary point can land a few ulps below the threshold it equals)
    spec, eta, zs = case
    kept = np.abs(scalar_prox(spec, zs, eta))
    soft = np.maximum(np.abs(zs) - eta * spec.lam, 0.0)
    assert np.all(kept >= soft - 1e-12 * np.abs(zs))


def test_array_prox_keeps_shape_and_scalar_type():
    spec = PenaltySpec(SCAD, 1.0, 3.7)
    z = np.array([[5.0, -3.0], [0.5, 0.0]])
    out = scalar_prox(spec, z, 1.0)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out, [[5.0, -4.4 / 1.7], [0.0, 0.0]], rtol=1e-15)
    assert type(scalar_prox(spec, 3.0, 1.0)) is float


def prox_objective(spec, x, a, eta):
    return 0.5 * (x - a) * (x - a) + eta * value(spec, x)


# relative distance from a branch point of the closed form beyond which it
# must pick the same candidate as the enumeration; rounding in the SCAD
# stationary point, amplified by (b - 1) / (b - 1 - eta), moved the choice up
# to 9e-7 from b*lambda in a random search with eta near b - 1
KNOT_GAP = 1e-6


def convex_case(case):
    """eta * zeta_minus < 1, compared without rounding the product."""
    spec, eta, _ = case
    return {NUCLEAR: True, SCAD: eta < spec.b - 1.0, MCP: eta < spec.b}[spec.family]


@given(prox_cases().filter(convex_case))
def test_convex_prox_matches_enumeration_where_convex(case):
    # eta * zeta_minus < 1: the closed form is never worse than the
    # enumeration by more than 4 ulps of the objective, and away from the
    # branch points eta*lambda, (1 + eta)*lambda and b*lambda it is the same
    # candidate, bitwise
    spec, eta, zs = case
    a = np.abs(zs)
    got = convex_prox(spec, a, eta)
    want = np.abs(scalar_prox(spec, zs, eta))
    for x, w, ai in zip(got.tolist(), want.tolist(), a.tolist()):
        best = prox_objective(spec, w, ai, eta)
        assert prox_objective(spec, x, ai, eta) <= best + 4 * math.ulp(best)
    lam, b = spec.lam, spec.b
    knots = [eta * lam] if spec.family == NUCLEAR else [eta * lam, (1 + eta) * lam, b * lam]
    away = np.all([np.abs(a - k) > KNOT_GAP * k for k in knots], axis=0)
    assert got[away].tobytes() == want[away].tobytes()
