import atexit
import importlib
import os
import pkgutil
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis.internal.conjecture import providers

import lowrankpen

sys.path.insert(0, str(Path(__file__).parent))

# property tests replay a fixed example sequence and store no example database;
# hypothesis's remaining on-disk caches go to a temporary directory, not the checkout
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
_HYPOTHESIS_DIR = tempfile.mkdtemp(prefix="lowrankpen-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_DIR, ignore_errors=True)
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_DIR)

# hypothesis also draws examples from the literals of every loaded module of the
# checkout outside the tests, so the examples would depend on which files a run
# collects (the benchmark harness's modules add theirs): the pool is pinned to
# the literals of the whole lowrankpen package, loaded here before any draw
for _module in pkgutil.iter_modules(lowrankpen.__path__, "lowrankpen."):
    importlib.import_module(_module.name)
_PACKAGE_DIR = Path(lowrankpen.__file__).resolve().parent
providers.is_local_module_file = lambda path: Path(path).resolve().parent == _PACKAGE_DIR

# pass/fail lines collected by the acceptance module, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from lowrankpen.operators import CompletionDesign, project_onto, quadratic_form
from lowrankpen.penalty import penalty_value
from lowrankpen.theory import CONE_FACTOR, cone_condition

from constants import PROX_GRID_STEP


def prox_grid_oracle(spec, z, eta, step=PROX_GRID_STEP):
    """Brute-force minimizer of (x-z)^2/2 + eta*p(|x|) on a dense grid.

    Independent of the candidate-enumeration prox.  Since p is even and
    nondecreasing in |x|, the minimizer has the sign of z and magnitude at
    most |z|: the grid scans [-10*step, |z| + 10*step] for the problem at |z|,
    refines around the best coarse point, and restores the sign of z.
    """
    a = abs(z)
    xs = np.arange(-10 * step, a + 11 * step, step)
    f = 0.5 * (xs - a) ** 2 + eta * penalty_value(spec, xs)
    i = int(np.argmin(f))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    fine = np.linspace(lo, hi, 4001)
    ff = 0.5 * (fine - a) ** 2 + eta * penalty_value(spec, fine)
    return float(np.copysign(fine[int(np.argmin(ff))], z))


def dense_measurement_matrices(design):
    """Explicit X_i stack for any design (one-hot matrices for completion)."""
    if isinstance(design, CompletionDesign):
        mats = np.zeros((design.n, design.m1, design.m2))
        for i, (j, k) in enumerate(design.entries):
            mats[i, j, k] = 1.0
        return mats
    return np.array(design.matrices)


def reference_forward(design, theta):
    mats = dense_measurement_matrices(design)
    return np.array([float(np.sum(x * theta)) for x in mats])


def reference_adjoint(design, v):
    mats = dense_measurement_matrices(design)
    return np.einsum("i,ijk->jk", np.asarray(v, float), mats)


def full_observation_design(m1, m2):
    """Completion design observing every cell exactly once (row-major order)."""
    jj, kk = np.meshgrid(np.arange(m1), np.arange(m2), indexing="ij")
    return CompletionDesign(m1=m1, m2=m2, entries=np.column_stack([jj.ravel(), kk.ravel()]))


def random_low_rank(rng, m1, m2, gammas):
    """Random truth with prescribed singular values; returns (theta, U, V)."""
    g = np.sort(np.asarray(gammas, float))[::-1]
    u, _, vt = np.linalg.svd(rng.standard_normal((m1, m2)), full_matrices=False)
    r = g.size
    return (u[:, :r] * g) @ vt[:r], u[:, :r], vt[:r].T


def bisection_blend(design, sub, direction):
    """Quadratic form of the unit ``direction`` D pulled onto the cone boundary
    by bisection to float resolution.  Along the blend (1-t) D + t C, C the
    aligned part P(D) over its norm, the complement part scales by (1-t) and
    the aligned part by (1-t) + t/||P(D)||_F, and the smallest t that brings
    the nuclear-norm ratio to 5 is bisected for.  A direction inside the cone
    is its own blend."""
    ratio, in_cone = cone_condition(direction, sub)
    if in_cone:
        return quadratic_form(design, direction)
    core = project_onto(sub, direction)
    core_norm = float(np.linalg.norm(core))
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) * ratio <= CONE_FACTOR * ((1.0 - mid) + mid / core_norm):
            hi = mid
        else:
            lo = mid
    cand = (1.0 - hi) * direction + (hi / core_norm) * core
    return quadratic_form(design, cand / np.linalg.norm(cand))
