"""Accelerated proximal-gradient solver for spectrally penalized least squares.

The estimator minimizes ||y - X(Theta)||^2 / (2n) + sum_i p(gamma_i(Theta))
by iterating a gradient step followed by the exact proximal map of the
spectral penalty (the scalar prox applied to the whole spectrum of the
stepped iterate).  Each step is taken from a FISTA extrapolation of the last
two iterates; when the objective rises, the step is discarded, the momentum
is reset and the plain step is taken instead (function-value adaptive
restart, O'Donoghue & Candes 2015), so the accepted objective sequence stays
monotone as in monotone APG for nonconvex penalties (Li & Lin 2015).  The
nuclear-norm warm start and the SCAD/MCP fit run the same loop.  An optional
entrywise box constraint ||Theta||_inf <= alpha* is enforced by clipping
after the prox; the composite prox of box + spectral penalty has no
tractable form, so this splitting is a documented heuristic.

Also provided: the exact smoothness constant of the loss, read from the
design's cached Hessian and used for the default step size; the
rank-restricted least-squares reference estimator; and the numeric rank rule
shared by all experiments.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from lowrankpen.operators import (
    CompletionDesign,
    Design,
    ObservationSet,
    Subspace,
    hessian_product,
    loss_gradient,
    loss_value,
)
from lowrankpen.penalty import NUCLEAR, PenaltySpec, penalty_value, scalar_prox

STEP_INVERSE_POWER = "inverse_power"
STEP_FIXED = "fixed"
WARM_ZERO = "zero"
WARM_NUCLEAR = "nuclear"


class DivergenceError(RuntimeError):
    """The objective became non-finite during iteration."""


class RankDeficiencyError(RuntimeError):
    """The reduced normal system stayed singular after the jitter rescue."""

    def __init__(self, null_dim: int):
        super().__init__(f"normal system is rank deficient (null dimension {null_dim})")
        self.null_dim = null_dim


class UnderdeterminedSystemWarning(RuntimeWarning):
    """Fewer observations than coefficients; the minimum-norm solution is returned."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for :func:`fit`.

    ``step_policy="inverse_power"`` sets the step to the reciprocal of the
    exact smoothness constant (:func:`estimate_lipschitz`); ``"fixed"`` uses
    ``eta`` directly.
    ``warm_start="nuclear"`` first solves the convex nuclear-norm problem at
    the same lambda and starts the nonconvex iteration there.
    """

    max_iter: int = 2000
    tol: float = 1e-7
    step_policy: str = STEP_INVERSE_POWER
    eta: float | None = None
    alpha_star: float | None = None
    warm_start: str = WARM_ZERO
    rank_tol_rel: float = 1e-4

    def __post_init__(self) -> None:
        if not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool):
            raise TypeError(f"max_iter must be an integer, got {self.max_iter!r}")
        for name in ("tol", "eta", "alpha_star", "rank_tol_rel"):
            value = getattr(self, name)
            if value is None and name in ("eta", "alpha_star"):
                continue
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.step_policy not in (STEP_INVERSE_POWER, STEP_FIXED):
            raise ValueError(f"unknown step policy {self.step_policy!r}")
        if self.step_policy == STEP_FIXED and not (self.eta and self.eta > 0):
            raise ValueError("fixed step policy requires a positive eta")
        if self.alpha_star is not None and not self.alpha_star > 0:
            raise ValueError("alpha_star must be positive when set")
        if self.warm_start not in (WARM_ZERO, WARM_NUCLEAR):
            raise ValueError(f"unknown warm start {self.warm_start!r}")
        if not self.rank_tol_rel > 0:
            raise ValueError("rank_tol_rel must be positive")


@dataclass(frozen=True)
class FitResult:
    """Solution of one penalized fit plus its convergence trace.

    ``objective_trace`` holds the starting objective and one value per
    accepted step; ``eta`` is the step size used and ``restarts`` the number
    of momentum resets.
    """

    theta_hat: np.ndarray
    spectrum: np.ndarray
    rank_hat: int
    iterations: int
    objective_trace: np.ndarray
    fixed_point_residual: float
    converged: bool
    eta: float
    restarts: int

    def to_dict(self) -> dict:
        return {
            "rank_hat": self.rank_hat,
            "iterations": self.iterations,
            "converged": self.converged,
            "fixed_point_residual": self.fixed_point_residual,
            "eta": self.eta,
            "restarts": self.restarts,
            "spectrum": [float(s) for s in self.spectrum],
        }


def numeric_rank(spectrum, rel_tol: float) -> int:
    """Count singular values strictly above rel_tol times the largest one."""
    s = np.asarray(spectrum, dtype=float)
    if s.size and s.min() < 0:
        raise ValueError("spectrum entries must be nonnegative")
    if s.size == 0 or s.max() == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s.max()))


def estimate_lipschitz(design: Design) -> float:
    """Largest eigenvalue of Theta -> X*(X(Theta))/n, the loss's smoothness constant.

    Exact, from the design's cached Hessian: max(count)/n for completion and
    the top eigenvalue of X^T X / n for sensing (the eigendecomposition is
    shared with the refined curvature probe).
    """
    if isinstance(design, CompletionDesign):
        return float(design.weights.max())
    return float(design.gram_eigh[0][-1])


def _prox_svd(spec: PenaltySpec, z: np.ndarray, eta: float):
    """SVD of z, scalar prox of its spectrum, rebuild from the nonzero part.

    Returns the prox, its singular values and those of z.  The prox is
    monotone, so the new values stay sorted and the zeros trail.
    """
    p, s, qt = np.linalg.svd(z, full_matrices=False)
    s_new = scalar_prox(spec, s, eta)
    r = int(np.count_nonzero(s_new))
    return (p[:, :r] * s_new[:r]) @ qt[:r], s_new, s


def prox_spectral(spec: PenaltySpec, z: np.ndarray, eta: float) -> np.ndarray:
    """Proximal map of the spectral penalty: scalar prox on each singular value."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    return _prox_svd(spec, np.asarray(z, dtype=float), eta)[0]


def _objective(obs: ObservationSet, spec: PenaltySpec, theta: np.ndarray, spectrum=None):
    if spectrum is None:
        spectrum = np.linalg.svd(theta, compute_uv=False)
    # overflow to inf is the divergence signal handled by the caller
    with np.errstate(over="ignore"):
        return loss_value(obs, theta) + float(np.sum(penalty_value(spec, spectrum)))


# t after the plain step that follows a momentum reset to t = 1
_T_AFTER_RESTART = 0.5 * (1.0 + math.sqrt(5.0))


def fit(
    obs: ObservationSet,
    spec: PenaltySpec,
    config: SolverConfig = SolverConfig(),
    prox_log: list | None = None,
) -> FitResult:
    """Run the accelerated proximal-gradient iteration to a fixed point.

    Each step extrapolates y = T_k + ((t_k - 1)/t_{k+1})(T_k - T_{k-1}) with
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2 and takes the prox-gradient step at
    y.  When the objective at the result rises above the one at T_k, that
    step is discarded, the momentum is reset (t = 1) and the plain step from
    T_k is taken instead; ``restarts`` counts these resets.  The accepted
    objective sequence is therefore monotone whenever the plain step is,
    which holds for the exact step 1/L without the box clip.

    ``iterations`` counts accepted steps.  Stops when the relative iterate
    change ||T+ - T||_F / max(1, ||T||_F) drops below ``config.tol`` or after
    ``config.max_iter`` accepted steps.  The reported
    ``fixed_point_residual`` is ||T - prox(T - eta grad L(T))||_F at the
    final iterate, computed without the box clip.  When ``prox_log`` is a
    list, the singular values of every pre-prox argument, discarded steps
    included, are appended to it.
    """
    design = obs.design
    if config.step_policy == STEP_FIXED:
        eta = float(config.eta)
    else:
        eta = 1.0 / estimate_lipschitz(design)

    if config.warm_start == WARM_NUCLEAR and spec.family != NUCLEAR:
        warm_config = replace(config, warm_start=WARM_ZERO, step_policy=STEP_FIXED, eta=eta)
        warm = fit(obs, PenaltySpec(NUCLEAR, spec.lam), warm_config)
        theta, spectrum = np.array(warm.theta_hat), warm.spectrum
    else:
        theta = np.zeros((design.m1, design.m2))
        spectrum = np.zeros(min(design.m1, design.m2))

    def step(point: np.ndarray, k: int):
        """Prox-gradient step from ``point``: the new iterate, its objective
        and its singular values (None after the box clip)."""
        z = point - eta * loss_gradient(obs, point)
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"iterate became non-finite at iteration {k}")
        theta_new, spectrum, s = _prox_svd(spec, z, eta)
        if prox_log is not None:
            prox_log.append(s)
        if config.alpha_star is not None:
            theta_new = np.clip(theta_new, -config.alpha_star, config.alpha_star)
            spectrum = None
        obj = _objective(obs, spec, theta_new, spectrum)
        if not math.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at iteration {k}")
        return theta_new, obj, spectrum

    obj = _objective(obs, spec, theta, spectrum)
    trace = [obj]
    theta_prev = theta
    t = 1.0
    restarts = 0
    converged = False
    iterations = 0
    for k in range(1, config.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        point = theta + momentum * (theta - theta_prev) if momentum > 0.0 else theta
        theta_new, obj_new, spectrum = step(point, k)
        if point is not theta and obj_new > obj:
            restarts += 1
            t_next = _T_AFTER_RESTART
            theta_new, obj_new, spectrum = step(theta, k)
        trace.append(obj_new)
        rel = np.linalg.norm(theta_new - theta) / max(1.0, np.linalg.norm(theta))
        theta_prev, theta, obj, t = theta, theta_new, obj_new, t_next
        iterations = k
        if rel <= config.tol:
            converged = True
            break

    residual_arg = theta - eta * loss_gradient(obs, theta)
    fpr = float(np.linalg.norm(theta - prox_spectral(spec, residual_arg, eta)))
    if spectrum is None:  # the box clip changed the accepted prox step
        spectrum = np.linalg.svd(theta, compute_uv=False)
    return FitResult(
        theta_hat=theta,
        spectrum=spectrum,
        rank_hat=numeric_rank(spectrum, config.rank_tol_rel),
        iterations=iterations,
        objective_trace=np.asarray(trace),
        fixed_point_residual=fpr,
        converged=converged,
        eta=eta,
        restarts=restarts,
    )


_DIRECT_SYSTEM_LIMIT = 400
_JITTER_SCALE = 1e-12
_CG_RTOL = 1e-10


def solve_oracle(obs: ObservationSet, sub: Subspace) -> np.ndarray:
    """Least-squares fit restricted to the given rank-r subspace.

    Minimizes ||y - X(U C V^T)||^2 / (2n) over the r x r coefficient matrix
    C.  With K = U kron V, the r^2 x r^2 normal equations K^T H K c = K^T
    X*(y)/n are formed from the design's cached Hessian and solved directly
    for r^2 <= 400 and by conjugate gradient (relative residual 1e-10) beyond
    that.  A singular normal matrix gets one diagonal jitter of 1e-12 times
    its trace; if that fails the rank deficiency is reported.  With fewer
    observations than coefficients the minimum-norm solution is returned and
    a warning issued.
    """
    r = sub.r
    if r == 0:
        return np.zeros((obs.design.m1, obs.design.m2))
    if r > min(obs.design.m1, obs.design.m2):
        raise ValueError("subspace rank exceeds matrix dimensions")
    k = np.kron(sub.U, sub.V)  # column a*r + b is vec(u_a v_b^T)
    gram = k.T @ hessian_product(obs.design, k)
    rhs = k.T @ obs.xty.ravel()
    d = r * r

    if obs.n < d:
        warnings.warn(
            f"{obs.n} observations for {d} coefficients; returning the "
            "minimum-norm solution",
            UnderdeterminedSystemWarning,
            stacklevel=2,
        )
        c = _solve_min_norm(gram, rhs, obs.n)
    elif d <= _DIRECT_SYSTEM_LIMIT:
        c = _solve_direct(gram, rhs)
    else:
        c = _solve_cg(gram, rhs)
    return sub.U @ c.reshape(r, r) @ sub.V.T


def _solve_min_norm(gram: np.ndarray, rhs: np.ndarray, n: int) -> np.ndarray:
    """Minimum-norm solution of a normal system of rank at most n.

    Only the top n eigenvalues can be nonzero.  The others are rounding
    noise, which a relative cutoff alone does not reliably drop from a Gram
    matrix; dividing by one would swamp the solution.
    """
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[-n:], eigvecs[:, -n:]
    keep = eigvals > gram.shape[0] * np.finfo(float).eps * eigvals[-1]
    basis = eigvecs[:, keep]
    return basis @ ((basis.T @ rhs) / eigvals[keep])


def _residual_ok(gram: np.ndarray, c: np.ndarray, rhs: np.ndarray) -> bool:
    if not np.all(np.isfinite(c)):
        return False
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(gram @ c - rhs)) / scale <= 1e-6


def _solve_direct(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        c = np.linalg.solve(gram, rhs)
        if _residual_ok(gram, c, rhs):
            return c
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_SCALE * float(np.trace(gram))
    jittered = gram + jitter * np.eye(gram.shape[0])
    try:
        c = np.linalg.solve(jittered, rhs)
    except np.linalg.LinAlgError:
        c = None
    if c is None or not _residual_ok(jittered, c, rhs):
        null_dim = gram.shape[0] - np.linalg.matrix_rank(gram)
        raise RankDeficiencyError(int(null_dim))
    return c


def _solve_cg(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    from scipy.sparse.linalg import cg

    try:
        c, info = cg(gram, rhs, rtol=_CG_RTOL, maxiter=20 * gram.shape[0])
    except TypeError:  # older scipy spells the tolerance "tol"
        c, info = cg(gram, rhs, tol=_CG_RTOL, maxiter=20 * gram.shape[0])
    if info != 0 or not _residual_ok(gram, c, rhs):
        jitter = _JITTER_SCALE * float(np.trace(gram))
        jittered = gram + jitter * np.eye(gram.shape[0])
        try:
            c, info = cg(jittered, rhs, rtol=_CG_RTOL, maxiter=20 * gram.shape[0])
        except TypeError:
            c, info = cg(jittered, rhs, tol=_CG_RTOL, maxiter=20 * gram.shape[0])
        if info != 0 or not _residual_ok(jittered, c, rhs):
            null_dim = gram.shape[0] - np.linalg.matrix_rank(gram)
            raise RankDeficiencyError(int(null_dim))
    return c
