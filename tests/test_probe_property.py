"""The chunked curvature probe against the one-direction-at-a-time loop.

``reference_probe`` is the per-direction loop the probe replaced: two full
singular-value decompositions and one quadratic form of the rebuilt,
normalized direction per direction, widened on a sensing design by the
refined extrema as the probe is, here from ``reference_refined_extrema``:
the top eigenvector of each block's Gram matrix, blended onto the cone by
bisection, and the aligned extremes from the explicit aligned basis.  The
chunked probe must consume the same random stream and reproduce its
estimates to rounding, valuing only the directions whose curvature bounds
can reach the running extremes by the closed-form curvature model those
bounds come from; the model must give every direction's quadratic form, the
bounds must bracket every value they prune, and the stacked operators the
probe is built on must reproduce their one-matrix calls.
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

from conftest import bisection_blend, random_low_rank

PROBE_RTOL = 1e-12
STACK_RTOL = 1e-15
# curvature values of unit directions within this of zero are zero to rounding
# (the Hessians here have spectral norms of at most about 4)
ZERO_ATOL = 1e-13
# a block's core-mass-optimal direction is unique only above this relative eigengap
GAP_RTOL = 1e-8
REFINE_RTOL = 1e-10


def nuclear_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def reference_values(design, sub, trials, rng):
    """Quadratic form of each drawn direction, rebuilt and normalized (None
    for a zero direction)."""
    m1, m2 = design.m1, design.m2
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
        yield None if nrm == 0.0 else quadratic_form(design, direction / nrm)


def gram_block_value(design, sub, block):
    """Bisection-blended value of a block's core-mass-optimal direction, taken
    as the top eigenvector of the k x k Gram matrix <P(B_i), B_j> of the
    block's eigenvectors B_i, and the relative gap below that top eigenvalue
    (the direction is unique only when it is positive)."""
    mats = design.gram_eigh[1][:, block].T.reshape(-1, design.m1, design.m2)
    gram = np.einsum("iab,jab->ij", project_onto(sub, mats), mats)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (gram + gram.T))
    direction = np.einsum("i,iab->ab", eigvecs[:, -1], mats)
    value = bisection_blend(design, sub, direction / float(np.linalg.norm(direction)))
    return value, (eigvals[-1] - eigvals[-2]) / eigvals[-1] if eigvals.size > 1 else 1.0


def aligned_extremes(design, sub):
    """Smallest and largest quadratic form over unit aligned directions
    U C V^T: the extreme eigenvalues of the Gram matrix restricted to the
    orthonormal basis u_a v_b^T of the aligned matrices."""
    basis = np.einsum("ia,jb->abij", sub.U, sub.V).reshape(sub.r**2, -1)
    eigvals = np.linalg.eigvalsh(basis @ design.gram @ basis.T)
    return eigvals[0], eigvals[-1]


def reference_refined_extrema(design, sub):
    """The refinement's (low, high) from :func:`gram_block_value` and
    :func:`aligned_extremes`, with the smallest relative eigengap over the
    blocks."""
    d = design.m1 * design.m2
    eigvals = design.gram_eigh[0]
    k = min(theory._REFINE_SUBSPACE, d)
    null_dim = int(np.count_nonzero(eigvals <= 1e-12 * max(eigvals[-1], 0.0)))
    low_blocks = [slice(0, k)] + ([slice(0, null_dim)] if 0 < null_dim < k else [])
    lows = [gram_block_value(design, sub, block) for block in low_blocks]
    high = gram_block_value(design, sub, slice(d - k, d))
    gap = min(g for _, g in [*lows, high])
    aligned_low, aligned_high = aligned_extremes(design, sub)
    return min(aligned_low, *(v for v, _ in lows)), max(aligned_high, high[0]), gap


def reference_probe(design, sub, trials, rng):
    kappa_hat, rho_hat = math.inf, -math.inf
    for value in reference_values(design, sub, trials, rng):
        if value is not None:
            kappa_hat, rho_hat = min(kappa_hat, value), max(rho_hat, value)
    if isinstance(design, SensingDesign):
        low, high, _ = reference_refined_extrema(design, sub)
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


def close(a, b, rtol, atol=0.0):
    return a == b or abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


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
    assert close(probe.kappa_hat, kappa, PROBE_RTOL, ZERO_ATOL)
    assert close(probe.rho_hat, rho, PROBE_RTOL)
    if r == 0:
        assert probe.kappa_hat == math.inf


REFINE_CASES = [
    # (m1, m2, r, n): criterion 5; criterion 3, whose low block lies in the null
    # space; n just below m1 m2, and 12 x 12 at n = 100, whose null spaces are
    # narrower than the block and take a second low block; the refined minima
    # of these three are zero to rounding; m1 m2 <= _REFINE_SUBSPACE, where
    # each block spans the whole space
    (20, 20, 4, 3000),
    (20, 20, 5, 300),
    (20, 20, 5, 380),
    (10, 10, 2, 2000),
    (12, 12, 3, 100),
    (9, 7, 2, 126),
    (8, 6, 2, 96),
    (5, 6, 2, 60),
]


@pytest.mark.parametrize("m1,m2,r,n", REFINE_CASES, ids=map(case_id, REFINE_CASES))
def test_refined_extrema_match_gram_eigenvector_reference(m1, m2, r, n):
    design, sub = make_case("sensing", m1, m2, r, seed=300 + r, n=n)
    low, high, gap = reference_refined_extrema(design, sub)
    got_low, got_high = _refined_extrema(design, sub)
    assert close(got_low, low, REFINE_RTOL, ZERO_ATOL)
    assert close(got_high, high, REFINE_RTOL)
    if m1 * m2 > theory._REFINE_SUBSPACE:
        assert gap > GAP_RTOL
    else:
        # every aligned direction has full core mass, so a block's pick among
        # them is arbitrary; the refined range is the aligned one regardless
        aligned_low, aligned_high = aligned_extremes(design, sub)
        assert close(got_low, aligned_low, PROBE_RTOL) and got_low < got_high
        assert close(got_high, aligned_high, PROBE_RTOL)


CLOSED_FORM_CASES = [
    # (model, m1, m2, r); r = min(m1, m2) has no complement part
    ("completion", 12, 10, 3),
    ("completion", 7, 5, 5),
    ("sensing", 8, 6, 2),
    ("sensing", 5, 6, 5),
]


@pytest.mark.parametrize(
    "model,m1,m2,r", CLOSED_FORM_CASES, ids=["-".join(map(str, c)) for c in CLOSED_FORM_CASES]
)
def test_curvature_model_values_every_direction(monkeypatch, model, m1, m2, r):
    # bounds that prune nothing: the model values every drawn direction, and
    # each must be the quadratic form of the rebuilt, normalized direction
    design, sub = make_case(model, m1, m2, r, seed=40 + r)
    valued = []

    def recording_model(*args):
        values = curvature_model(*args)
        if np.ndim(values):  # a chunk's directions; the refinement's calls are scalar
            valued.extend(np.maximum(values, 0.0))
        return values

    curvature_model = theory._curvature_model
    monkeypatch.setattr(theory, "_curvature_model", recording_model)
    monkeypatch.setattr(
        theory, "_value_bounds", lambda a, *_: (np.zeros(a.shape), np.full(a.shape, math.inf))
    )
    trials = 2 * theory._PROBE_CHUNK + 3
    probe_rsc(design, sub, trials, np.random.default_rng(41))
    want = list(reference_values(design, sub, trials, np.random.default_rng(41)))
    assert len(valued) == trials and None not in want
    for got, value in zip(valued, want):
        assert close(got, value, PROBE_RTOL)


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
