"""The chunked curvature probe against the one-direction-at-a-time loop.

``reference_probe`` is the per-direction loop the probe replaced: two full
singular-value decompositions and one quadratic form per direction, widened
on a sensing design by the refined extrema as the probe is.  The
chunked probe must consume the same random stream and reproduce its
estimates to rounding; the stacked operators it is built on must reproduce
their one-matrix calls.
"""

import math

import numpy as np
import pytest

from lowrankpen.operators import (
    SensingDesign,
    Subspace,
    project_complement,
    project_onto,
    quadratic_form,
    sample_completion_design,
    sample_sensing_design,
)
from lowrankpen.theory import CONE_FACTOR, _refined_extrema, cone_condition, probe_rsc

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


def make_case(model, m1, m2, r, seed):
    rng = np.random.default_rng(seed)
    if r == 0:
        sub = Subspace(np.zeros((m1, 0)), np.zeros((m2, 0)))
    else:
        _, u, v = random_low_rank(rng, m1, m2, np.linspace(2.0, 1.0, r))
        sub = Subspace(u, v)
    if model == "completion":
        design = sample_completion_design(rng, m1, m2, 3 * m1 * m2)
    else:
        design = sample_sensing_design(rng, m1, m2, 2 * m1 * m2)
    return design, sub


def close(a, b, rtol):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


CASES = [
    # (model, m1, m2, r, trials)
    *[("completion", 12, 10, 3, t) for t in (1, 26, 53)],
    *[("sensing", 8, 6, 2, t) for t in (1, 26, 53)],
    ("completion", 7, 5, 5, 26),  # r = min(m1, m2): no complement draw
    ("sensing", 5, 6, 5, 26),
    ("completion", 6, 6, 0, 26),  # empty subspace: every direction is zero
]


@pytest.mark.parametrize("model,m1,m2,r,trials", CASES)
def test_chunked_probe_matches_per_direction_loop(model, m1, m2, r, trials):
    design, sub = make_case(model, m1, m2, r, seed=100 + 7 * r + trials)
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
