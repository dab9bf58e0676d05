import atexit
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests replay a fixed example sequence and store no example database;
# hypothesis's remaining on-disk caches go to a temporary directory, not the checkout
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
_HYPOTHESIS_DIR = tempfile.mkdtemp(prefix="lowrankpen-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_DIR, ignore_errors=True)
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_DIR)

# pass/fail lines collected by the acceptance module, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from lowrankpen.operators import CompletionDesign
from lowrankpen.penalty import penalty_value

from constants import PROX_GRID_STEP


def prox_grid_oracle(spec, z, eta, step=PROX_GRID_STEP):
    """Brute-force minimizer of (x-z)^2/2 + eta*p(|x|) on a dense grid.

    Independent of the candidate-enumeration prox: scans a symmetric grid
    covering the shrinkage range (the minimizer magnitude never exceeds |z|)
    and refines around the best coarse point.
    """
    span = abs(z) + 10 * step
    xs = np.arange(-span, span + step, step)
    f = 0.5 * (xs - z) ** 2 + eta * penalty_value(spec, xs)
    i = int(np.argmin(f))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    fine = np.linspace(lo, hi, 4001)
    ff = 0.5 * (fine - z) ** 2 + eta * penalty_value(spec, fine)
    return float(fine[int(np.argmin(ff))])


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
