"""The chunked curvature probe against the one-direction-at-a-time loop.

``reference_probe`` is the per-direction loop the probe replaced: two full
singular-value decompositions and one quadratic form per direction, widened
on a sensing design by the refined extrema as the probe is.  The
chunked probe must consume the same random stream and reproduce its
estimates to rounding, evaluating exactly only the directions whose
curvature bounds can reach the running extremes; the bounds must bracket
every value they prune, and the stacked operators the probe is built on
must reproduce their one-matrix calls.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowrankpen.operators import (
    SensingDesign,
    Subspace,
    hessian_product,
    project_complement,
    project_onto,
    quadratic_form,
    sample_completion_design,
    sample_sensing_design,
)
from lowrankpen import theory
from lowrankpen.theory import (
    CONE_FACTOR,
    _refined_extrema,
    _value_bounds,
    cone_condition,
    probe_rsc,
)

from conftest import random_low_rank

PROBE_RTOL = 1e-12
STACK_RTOL = 1e-15


def nuclear_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def reference_probe(design, sub, trials, rng):
    m1, m2 = design.m1, design.m2
    kappa_hat, rho_hat = math.inf, -math.inf
    for _ in range(trials):
        aligned = project_onto(sub, rng.standard_normal((m1, m2)))
        ratio = float(rng.uniform(0.0, CONE_FACTOR))
        direction = aligned
        aligned_nuc = nuclear_norm(aligned)
        if aligned_nuc > 0 and sub.r < min(m1, m2):
            comp = project_complement(sub, rng.standard_normal((m1, m2)))
            comp_nuc = nuclear_norm(comp)
            if comp_nuc > 0:
                direction = aligned + comp * (ratio * aligned_nuc / comp_nuc)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            continue
        value = quadratic_form(design, direction / nrm)
        kappa_hat = min(kappa_hat, value)
        rho_hat = max(rho_hat, value)
    if isinstance(design, SensingDesign):
        low, high = _refined_extrema(design, sub)
        kappa_hat, rho_hat = min(kappa_hat, low), max(rho_hat, high)
    return kappa_hat, rho_hat


def make_case(model, m1, m2, r, seed, n=None):
    rng = np.random.default_rng(seed)
    if r == 0:
        sub = Subspace(np.zeros((m1, 0)), np.zeros((m2, 0)))
    else:
        _, u, v = random_low_rank(rng, m1, m2, np.linspace(2.0, 1.0, r))
        sub = Subspace(u, v)
    if model == "completion":
        design = sample_completion_design(rng, m1, m2, n or 3 * m1 * m2)
    else:
        design = sample_sensing_design(rng, m1, m2, n or 2 * m1 * m2)
    return design, sub


def close(a, b, rtol):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


CASES = [
    # (model, m1, m2, r, trials, n); n None: 3 m1 m2 (completion), 2 m1 m2 (sensing)
    *[("completion", 12, 10, 3, t, None) for t in (1, 26, 53)],
    *[("sensing", 8, 6, 2, t, None) for t in (1, 26, 53)],
    ("completion", 7, 5, 5, 26, None),  # r = min(m1, m2): no complement draw
    ("sensing", 5, 6, 5, 26, None),
    ("completion", 6, 6, 0, 26, None),  # empty subspace: every direction is zero
    # criterion-4 and criterion-7 shapes, where most directions are pruned
    ("completion", 40, 40, 13, 200, None),
    ("completion", 40, 40, 5, 200, None),
    # criterion 5: the refined extrema seed both running extremes and dominate
    ("sensing", 20, 20, 4, 200, 3000),
    # criterion 3: null directions, whose values sit at the zero clip
    ("sensing", 20, 20, 5, 200, 300),
]


def case_id(case):
    *shape, n = case
    return "-".join(map(str, shape)) + ("" if n is None else f"-n{n}")


@pytest.mark.parametrize("model,m1,m2,r,trials,n", CASES, ids=map(case_id, CASES))
def test_chunked_probe_matches_per_direction_loop(model, m1, m2, r, trials, n):
    design, sub = make_case(model, m1, m2, r, seed=100 + 7 * r + trials, n=n)
    rng_ref = np.random.default_rng(2024)
    rng_new = np.random.default_rng(2024)
    kappa, rho = reference_probe(design, sub, trials, rng_ref)
    probe = probe_rsc(design, sub, trials, rng_new)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert close(probe.kappa_hat, kappa, PROBE_RTOL)
    assert close(probe.rho_hat, rho, PROBE_RTOL)
    if r == 0:
        assert probe.kappa_hat == math.inf


@pytest.mark.parametrize("model", ["completion", "sensing"])
def test_stacked_operators_match_per_slice_calls(model):
    design, sub = make_case(model, 9, 7, 3, seed=5)
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((2, 3, 9, 7))
    slices = stack.reshape(-1, 9, 7)
    for project in (project_onto, project_complement):
        stacked = project(sub, stack).reshape(-1, 9, 7)
        for got, a in zip(stacked, slices):
            want = project(sub, a)
            assert np.abs(got - want).max() <= STACK_RTOL * np.abs(want).max()
    values = quadratic_form(design, stack)
    assert values.shape == (2, 3)
    for got, a in zip(values.ravel(), slices):
        want = quadratic_form(design, a)
        assert isinstance(want, float)
        assert abs(got - want) <= STACK_RTOL * want
    with pytest.raises(ValueError):
        project_onto(sub, stack[..., :6])
    with pytest.raises(ValueError):
        quadratic_form(design, stack[..., :6, :])


def test_cone_condition_matches_full_decompositions():
    # nuclear norms from the small cores equal those of the full projections
    _, sub = make_case("completion", 10, 8, 3, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        delta = rng.standard_normal((10, 8))
        want = nuclear_norm(project_complement(sub, delta)) / nuclear_norm(
            project_onto(sub, delta)
        )
        ratio, in_cone = cone_condition(delta, sub)
        assert close(ratio, want, PROBE_RTOL)
        assert in_cone == (ratio <= CONE_FACTOR)


def test_probe_evaluates_few_directions_exactly(monkeypatch):
    # the bounds prune most of a 200-direction probe of the criterion-4 shape,
    # so few directions reach the nuclear-norm singular-value calls
    r = 13
    design, sub = make_case("completion", 40, 40, r, seed=7)
    reached = []

    def counting_nuclear_norms(cores):
        if cores.shape[-2:] == (r, r):  # the aligned cores; the complement's follow
            reached.append(cores.shape[0])
        return nuclear_norms(cores)

    nuclear_norms = theory._nuclear_norms
    monkeypatch.setattr(theory, "_nuclear_norms", counting_nuclear_norms)
    probe = probe_rsc(design, sub, 200, np.random.default_rng(8))
    kappa, rho = reference_probe(design, sub, 200, np.random.default_rng(8))
    assert close(probe.kappa_hat, kappa, PROBE_RTOL) and close(probe.rho_hat, rho, PROBE_RTOL)
    assert 1 <= sum(reached) <= 60


def exact_value(a, b, c, p, p_perp, s):
    """v(s) = (a + 2bs + cs^2) / (p + s^2 p_perp) in exact rational arithmetic,
    clipped at zero as the quadratic form is."""
    a, b, c, p, p_perp, s = map(Fraction, (a, b, c, p, p_perp, s))
    return max((a + 2 * b * s + c * s * s) / (p + s * s * p_perp), Fraction(0))


def assert_brackets(a, b, c, p, p_perp, s_lo, s_hi, fractions):
    args = (np.array([x]) for x in (a, b, c, p, p_perp, s_lo, s_hi))
    lo, hi = (float(x[0]) for x in _value_bounds(*args))
    assert 0.0 <= lo <= hi
    for u in fractions:
        s = s_lo + u * (s_hi - s_lo)
        assert Fraction(lo) <= exact_value(a, b, c, p, p_perp, s) <= Fraction(hi)


TINY = float(np.finfo(float).tiny)
values = st.floats(-1e3, 1e3)
masses = st.floats(1e-6, 1e6)
offsets = st.floats(0.0, 1e3)
unit = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)


@settings(max_examples=400)
@given(
    a=values,
    b=values,
    c=values,
    p=masses,
    p_perp=st.just(0.0) | masses,
    s_lo=offsets,
    width=st.just(0.0) | offsets,
    fractions=unit,
)
# the edge cases: b = 0; C_perp = 0 (no complement part); s_lo = s_hi; a ratio of 0
@example(a=2.0, b=0.0, c=0.5, p=1.0, p_perp=3.0, s_lo=0.1, width=4.0, fractions=[0.3])
@example(a=2.0, b=0.7, c=0.5, p=1.0, p_perp=0.0, s_lo=0.0, width=0.0, fractions=[0.5])
@example(a=2.0, b=-0.7, c=0.5, p=1.0, p_perp=3.0, s_lo=1.5, width=0.0, fractions=[1.0])
@example(a=2.0, b=-0.7, c=0.5, p=1.0, p_perp=3.0, s_lo=0.0, width=0.0, fractions=[0.0])
# v underflows to zero; a stationary point overflows
@example(a=0.0, b=0.0, c=1.0, p=1.0, p_perp=0.0, s_lo=TINY, width=0.0, fractions=[0.0])
@example(a=0.0, b=2.0, c=TINY, p=1.0, p_perp=0.0, s_lo=0.0, width=0.0, fractions=[0.0])
def test_value_bounds_bracket_every_value_in_the_range(
    a, b, c, p, p_perp, s_lo, width, fractions
):
    assert_brackets(a, b, c, p, p_perp, s_lo, s_lo + width, fractions)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), s_lo=offsets, width=offsets, fractions=unit)
def test_value_bounds_bracket_near_zero_sensing_values(seed, s_lo, width, fractions):
    # two directions in the null space of a sensing design with n < m1 m2:
    # a, b and c are rounding noise of either sign around zero
    rng = np.random.default_rng(seed)
    design = sample_sensing_design(rng, 4, 5, 8)
    null_rows = np.linalg.svd(design.matrices.reshape(8, 20))[2][8:]
    cols = null_rows.T @ rng.standard_normal((12, 2))
    h_cols = hessian_product(design, cols)
    a, b, c = cols[:, 0] @ h_cols[:, 0], cols[:, 0] @ h_cols[:, 1], cols[:, 1] @ h_cols[:, 1]
    assert max(abs(a), abs(b), abs(c)) < 1e-12
    p, p_perp = cols[:, 0] @ cols[:, 0], cols[:, 1] @ cols[:, 1]
    assert_brackets(a, b, c, p, p_perp, s_lo, s_lo + width, fractions)
