"""Accelerated proximal-gradient solver for spectrally penalized least squares.

The estimator minimizes ||y - X(Theta)||^2 / (2n) + sum_i p(gamma_i(Theta))
by iterating a gradient step followed by the proximal map of the spectral
penalty (the scalar prox applied to the spectrum of the stepped iterate; on
large matrices only the singular triplets that survive the threshold are
computed, warm-started from the previous step, as in Soft-Impute, Mazumder,
Hastie & Tibshirani 2010, and a block that converges too slowly is used once
its error is small against the step's progress, an inexact prox step as in
Schmidt, Le Roux & Bach 2011).  Each step is taken from a FISTA extrapolation of
the last two iterates; when the objective rises, the step is discarded, the
momentum is reset and the plain step is taken instead (function-value
adaptive restart, O'Donoghue & Candes 2015), so the accepted objective
sequence stays monotone as in monotone APG for nonconvex penalties (Li &
Lin 2015).  The nuclear-norm warm start, stopped at sqrt(tol), and the
SCAD/MCP fit run the same loop, which takes one Hessian product per prox
step.  An optional entrywise box constraint ||Theta||_inf <= alpha* is
enforced by clipping after the prox; the composite prox of box + spectral
penalty has no tractable form, so this splitting is a documented heuristic.

Also provided: the exact smoothness constant of the loss, read from the
design's cached Hessian and used for the default step size; the
rank-restricted least-squares reference estimator; and the numeric rank rule
shared by all experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from lowrankpen.operators import (
    CompletionDesign,
    Design,
    ObservationSet,
    Subspace,
    apply_hessian,
    loss_value,
    subspace_hessian,
)
from lowrankpen.penalty import NUCLEAR, PenaltySpec, convex_prox, penalty_value, scalar_prox

WARM_ZERO = "zero"
WARM_NUCLEAR = "nuclear"


class DivergenceError(RuntimeError):
    """An iterate, the objective, or the final residual or spectrum became non-finite."""


class RankDeficiencyError(RuntimeError):
    """The reduced normal system is numerically singular although n >= r^2.

    ``null_dim`` counts the eigenvalues of the normal matrix at or below the
    cutoff of :func:`solve_oracle`; no regularization is tried.
    """

    def __init__(self, null_dim: int):
        super().__init__(f"normal system is rank deficient (null dimension {null_dim})")
        self.null_dim = null_dim


class UnderdeterminedSystemWarning(RuntimeWarning):
    """Fewer observations than coefficients; the minimum-norm solution is returned."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for :func:`fit`.

    ``eta=None`` sets the step to the reciprocal of the exact smoothness
    constant (:func:`estimate_lipschitz`); a positive ``eta`` is used as a
    fixed step instead.
    ``warm_start="nuclear"`` first solves the convex nuclear-norm problem at
    the same lambda, with the same step, to the tolerance sqrt(tol), and
    starts the nonconvex iteration there: a folded-concave fit needs its
    convex start only to statistical accuracy (Fan, Xue & Zou, Ann. Statist.
    2014), not to the final tolerance.  The warm start is a nested
    :func:`fit` call, so its result carries its own iteration count.
    """

    max_iter: int = 2000
    tol: float = 1e-7
    eta: float | None = None
    alpha_star: float | None = None
    warm_start: str = WARM_ZERO
    rank_tol_rel: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter!r}")
        for name in ("tol", "eta", "alpha_star", "rank_tol_rel"):
            value = getattr(self, name)
            if value is None and name in ("eta", "alpha_star"):
                continue
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.warm_start not in (WARM_ZERO, WARM_NUCLEAR):
            raise ValueError(
                f"warm_start must be {WARM_ZERO!r} or {WARM_NUCLEAR!r}, got {self.warm_start!r}"
            )


@dataclass(frozen=True)
class FitResult:
    """Solution of one penalized fit plus its convergence trace.

    ``objective_trace`` holds the starting objective and one value per
    accepted step; ``eta`` is the step size used and ``restarts`` the number
    of momentum resets.  ``block`` holds the right singular vectors the last
    prox step passes on (see :func:`_prox_svd`); a fit warm-started from
    this one starts its truncated prox from them.  It is not serialized.
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
    block: np.ndarray | None = None

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


# Truncated prox (see _prox_svd): the smallest min(m1, m2) that takes it (the
# measured crossover with the full SVD on completion fits), the oversampling
# columns carried past the kept rank, the block steps before the full SVD
# takes over, the residual tolerance, relative to the top Ritz value, that
# every kept Ritz triplet must meet, and the fraction of the last accepted
# step ||T_k - T_{k-1}||_F, over the momentum weight t_k, that the kept
# residual block may reach when that tolerance is out of reach.
_TRUNCATE_MIN_DIM = 100
_OVERSAMPLE = 5
_BLOCK_STEPS = 8
_RITZ_TOL = 1e-12
_PROGRESS_FRACTION = 0.2


def _truncated_svd(z: np.ndarray, block: np.ndarray, threshold: float, allowance: float = 0.0):
    """Leading singular triplets of z by block subspace iteration, or None.

    Starts from the columns of ``block`` (approximate right singular
    vectors) and repeats Y = z V, Q = qr(Y), (U_b, s, V^T) = svd(Q^T z),
    U = Q U_b; z^T u_i = s_i v_i then holds by construction.  Accepts once
    the last Ritz value is at most ``threshold`` and every Ritz triplet
    above it has converged, ||z v_i - s_i u_i|| <= _RITZ_TOL * s_1.

    The residuals shrink by about (s_k / s_r)^2 a step (s_r the smallest
    kept Ritz value, s_k the last one).  Once they cannot reach that
    tolerance in the _BLOCK_STEPS steps, the block is still accepted as soon
    as the residuals of the kept triplets, R = z V_r - U_r S_r, have
    ||R||_F <= ``allowance``; the iteration goes on while ||R||_F can still
    reach the allowance in the steps left and gives up otherwise.  The
    kept triplets are exact singular triplets of z - R V_r^T, a matrix within
    ||R||_F of z, so the prox built from them is the exact prox of that
    matrix whenever the spectrum the block does not track stays at or below
    the threshold.

    Returns (U, s, V^T, exact), ``exact`` False for a block accepted on the
    allowance, or None: when the block exceeds half of min(m1, m2), when
    every Ritz value is above the threshold (the block cannot hold the kept
    part), or when the block cannot reach the allowance.
    """
    if block.shape[1] > min(z.shape) // 2:
        return None
    y = z @ block
    for steps_left in range(_BLOCK_STEPS - 1, -1, -1):
        q, _ = np.linalg.qr(y)
        ub, s, vt = np.linalg.svd(q.T @ z, full_matrices=False)
        if s[-1] > threshold:
            return None
        u = q @ ub
        y = z @ vt.T
        r = int(np.count_nonzero(s > threshold))
        resid = y[:, :r] - u[:, :r] * s[:r]
        worst = np.linalg.norm(resid, axis=0).max(initial=0.0)
        tol = _RITZ_TOL * s[0]
        if worst <= tol:
            return u, s, vt, True
        rate = (s[-1] / s[r - 1]) ** (2 * steps_left)
        if worst * rate > tol:
            kept = np.linalg.norm(resid)
            if kept <= allowance:
                return u, s, vt, False
            if kept * rate > allowance:
                return None
    return (u, s, vt, False) if np.linalg.norm(resid) <= allowance else None


def _prox_svd(spec: PenaltySpec, z: np.ndarray, eta: float, block=None, allowance: float = 0.0):
    """SVD of z, scalar prox of its spectrum, rebuild from the nonzero part.

    The scalar prox is the closed form :func:`~lowrankpen.penalty.convex_prox`
    when eta is finite and positive and eta * zeta_minus < 1
    (:meth:`~lowrankpen.penalty.PenaltySpec.convex_at`), the same gate as the
    truncated prox below, and the enumeration
    :func:`~lowrankpen.penalty.scalar_prox` otherwise (which rejects an
    ``eta`` that is not finite and positive).  The iteration and
    :func:`prox_spectral` both come here, so the residual certifies the map
    the iteration applies.

    Returns the prox, its min(m1, m2) singular values, ``block`` for the
    next call (the right singular vectors of the kept part plus
    _OVERSAMPLE more) and whether the SVD was exact.  The prox is monotone,
    so the new values stay sorted and the zeros trail.

    Given a ``block`` from the previous step, only the triplets above
    eta * lambda are computed (:func:`_truncated_svd`, warm-started from
    the block) and the rest of the spectrum is zero.  That needs the scalar
    prox to zero every value at or below eta * lambda, which holds when its
    objective (x - z)^2 / 2 + eta * p(x) is convex, eta * zeta_minus < 1
    (always for the nuclear norm, eta < b - 1 for SCAD, eta < b for MCP),
    and min(m1, m2) of at least _TRUNCATE_MIN_DIM; otherwise, without a
    block, or when the block iteration gives up, the SVD is the full one.  A
    block that cannot reach the exact tolerance but whose kept residual
    block R reaches ||R||_F <= ``allowance`` is used and reported inexact:
    the prox is then the exact prox of a matrix within ``allowance`` of z, so it lies
    within ``allowance`` / (1 - eta * zeta_minus) of prox(z) in the
    Frobenius norm, that factor being the Lipschitz constant of the scalar
    prox, as long as the spectrum the block does not track stays at or
    below eta * lambda.  Ritz values are lower bounds,
    so the truncated prox serves the iteration only: :func:`prox_spectral`
    takes the full SVD and certifies the result.
    """
    svd = None
    convex = 0.0 < eta < math.inf and spec.convex_at(eta)
    if block is not None and min(z.shape) >= _TRUNCATE_MIN_DIM and convex:
        svd = _truncated_svd(z, block, eta * spec.lam, allowance)
    p, s, qt, exact = (*np.linalg.svd(z, full_matrices=False), True) if svd is None else svd
    s_new = convex_prox(spec, s, eta) if convex else scalar_prox(spec, s, eta)
    r = int(np.count_nonzero(s_new))
    theta = (p[:, :r] * s_new[:r]) @ qt[:r]
    if svd is not None:  # the untracked rest of the spectrum is zero
        s_new = np.concatenate([s_new, np.zeros(min(z.shape) - s_new.size)])
    return theta, s_new, qt[: r + _OVERSAMPLE].T, exact


def prox_spectral(spec: PenaltySpec, z: np.ndarray, eta: float) -> np.ndarray:
    """Proximal map of the spectral penalty: scalar prox on each singular value
    (see :func:`_prox_svd`; an ``eta`` that is not finite and positive is
    rejected).  A non-finite ``z`` raises ``ValueError`` before the SVD,
    which may not return on it."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    return _prox_svd(spec, z, eta)[0]


def _objective(obs: ObservationSet, spec: PenaltySpec, theta, h_theta, spectrum):
    # overflow to inf is the divergence signal handled by the caller
    with np.errstate(over="ignore"):
        return loss_value(obs, theta, h_theta) + float(np.sum(penalty_value(spec, spectrum)))


# t after the plain step that follows a momentum reset to t = 1
_T_AFTER_RESTART = 0.5 * (1.0 + math.sqrt(5.0))


def fit(
    obs: ObservationSet,
    spec: PenaltySpec,
    config: SolverConfig = SolverConfig(),
) -> FitResult:
    """Run the accelerated proximal-gradient iteration to a fixed point.

    Each step extrapolates y = T_k + ((t_k - 1)/t_{k+1})(T_k - T_{k-1}) with
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2 and takes the prox-gradient step at
    y.  When the objective at the result rises above the one at T_k, that
    step is discarded, the momentum is reset (t = 1) and the plain step from
    T_k is taken instead; ``restarts`` counts these resets.  A plain step
    whose prox was inexact (below) and that raises the objective is redone
    with the full SVD.  The accepted objective sequence is therefore
    monotone whenever the exact plain step is, which holds for the step 1/L
    without the box clip.

    Each prox step takes one Hessian product, H T of its new iterate T (see
    :func:`~lowrankpen.operators.apply_hessian`), plus one for the starting
    point.  It gives the loss of T (expanded for sensing; completion keeps
    its residual sum) and, since H is linear, the gradient at the next
    extrapolated point, H y - X*(y)/n with H y = H T_k + m (H T_k - H T_{k-1}),
    at a restart's plain point and in the final residual.  The scalar prox
    of every step and of the residual is the closed form when
    eta * zeta_minus < 1 and the enumeration otherwise (:func:`_prox_svd`).
    With ``warm_start="nuclear"`` the nested nuclear fit runs first, to the
    tolerance sqrt(``config.tol``) (see :class:`SolverConfig`).

    ``iterations`` counts accepted steps.  Stops when the relative iterate
    change ||T+ - T||_F / max(1, ||T||_F) drops below ``config.tol`` or after
    ``config.max_iter`` accepted steps.  The reported
    ``fixed_point_residual`` is ||T - prox(T - eta grad L(T))||_F at the
    final iterate, computed without the box clip.  :class:`DivergenceError`
    is raised when an iterate or objective becomes non-finite, or when the
    final residual or spectrum is, so a returned fit is finite throughout.

    The loop carries the previous step's right singular vectors (the kept
    ones plus a few more) from step to step; the plain step after a reset
    starts from the same vectors as the discarded one, and the SCAD/MCP loop
    after a nuclear warm start starts from the warm fit's last ones
    (``FitResult.block``).  With them each prox computes only the triplets
    above eta * lambda (see :func:`_prox_svd`), so on a matrix with
    min(m1, m2) >= _TRUNCATE_MIN_DIM a step costs a few products with a
    thin block instead of a full SVD.  A block whose iteration cannot reach
    _RITZ_TOL is still used, as an inexact prox, when its kept residuals
    have a Frobenius norm of at most _PROGRESS_FRACTION times the last
    accepted step ||T_k - T_{k-1}||_F, divided by the momentum weight t_k
    (so never on a fit's first step).  An accelerated method weighs the
    error of step k by about k = 2 t_k against a plain one (Schmidt, Le Roux
    & Bach 2011), so its allowance shrinks with t_k; a restart resets it.
    The first step of a fit without a warm block, any step whose block is
    too small to hold every value above eta * lambda, and any step whose
    block misses that allowance take the full SVD.
    ``fixed_point_residual`` always uses the full SVD, so it is an exact
    certificate of the returned iterate.
    """
    design = obs.design
    eta = 1.0 / estimate_lipschitz(design) if config.eta is None else float(config.eta)

    if config.warm_start == WARM_NUCLEAR and spec.family != NUCLEAR:
        # a convex start needs only statistical accuracy, not the final tol
        warm_config = replace(config, warm_start=WARM_ZERO, eta=eta, tol=math.sqrt(config.tol))
        warm = fit(obs, PenaltySpec(NUCLEAR, spec.lam), warm_config)
        theta, spectrum, block = np.array(warm.theta_hat), warm.spectrum, warm.block
    else:
        theta = np.zeros((design.m1, design.m2))
        spectrum = np.zeros(min(design.m1, design.m2))
        block = None

    def step(point: np.ndarray, h_point: np.ndarray, k: int, block, allowance=0.0):
        """Prox-gradient step from ``point``, given H ``point``: the new
        iterate, H times it, its objective, its singular values, the next
        block and whether the prox was exact."""
        z = point - eta * (h_point - obs.xty)
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"iterate became non-finite at iteration {k}")
        theta_new, spectrum, block, exact = _prox_svd(spec, z, eta, block, allowance)
        if config.alpha_star is not None:
            theta_new = np.clip(theta_new, -config.alpha_star, config.alpha_star)
            spectrum = np.linalg.svd(theta_new, compute_uv=False)
        h_new = apply_hessian(design, theta_new)
        obj = _objective(obs, spec, theta_new, h_new, spectrum)
        if not math.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at iteration {k}")
        return theta_new, h_new, obj, spectrum, block, exact

    h = apply_hessian(design, theta)
    obj = _objective(obs, spec, theta, h, spectrum)
    trace = [obj]
    theta_prev, h_prev = theta, h
    t = 1.0
    restarts = 0
    converged = False
    iterations = 0
    progress = 0.0  # ||T_k - T_{k-1}||_F of the last accepted step
    for k in range(1, config.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        point, h_point = theta, h
        if momentum > 0.0:  # H is linear: H y = H T_k + momentum (H T_k - H T_{k-1})
            point = theta + momentum * (theta - theta_prev)
            h_point = h + momentum * (h - h_prev)
        allowance = _PROGRESS_FRACTION * progress / t
        theta_new, h_new, obj_new, spectrum, block_new, exact = step(
            point, h_point, k, block, allowance
        )
        if point is not theta and obj_new > obj:
            restarts += 1
            t_next = _T_AFTER_RESTART
            theta_new, h_new, obj_new, spectrum, block_new, exact = step(
                theta, h, k, block, allowance
            )
        if not exact and obj_new > obj:  # an inexact plain step rose: take the full SVD
            theta_new, h_new, obj_new, spectrum, block_new, _ = step(theta, h, k, None)
        trace.append(obj_new)
        progress = float(np.linalg.norm(theta_new - theta))
        rel = progress / max(1.0, np.linalg.norm(theta))
        theta_prev, h_prev, theta, h = theta, h, theta_new, h_new
        obj, t, block = obj_new, t_next, block_new
        iterations = k
        if rel <= config.tol:
            converged = True
            break

    residual_arg = theta - eta * (h - obs.xty)
    fpr = math.inf  # unless the gradient step is finite: an SVD of infinities may not return
    if np.isfinite(residual_arg).all():
        fpr = float(np.linalg.norm(theta - prox_spectral(spec, residual_arg, eta)))
    if not (math.isfinite(fpr) and np.isfinite(spectrum).all()):
        raise DivergenceError(f"non-finite residual or spectrum after {iterations} iterations")
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
        block=block,
    )


def solve_oracle(obs: ObservationSet, sub: Subspace) -> np.ndarray:
    """Least-squares fit restricted to the given rank-r subspace.

    Minimizes ||y - X(U C V^T)||^2 / (2n) over the r x r coefficient matrix
    C.  With K = U kron V, the d = r^2 normal equations K^T H K c = K^T
    X*(y)/n are formed from the design's cached Hessian
    (:func:`~lowrankpen.operators.subspace_hessian`) and solved by one
    eigendecomposition of the normal matrix.  The matrix has rank at most n,
    so only its top min(n, d) eigenpairs are kept, and of those the ones
    above d * eps times the largest; the solution is the minimum-norm one on
    the kept eigenvectors.  With fewer observations than coefficients a
    warning is issued; otherwise a dropped eigenvalue means the system is
    numerically singular and :class:`RankDeficiencyError` is raised.
    """
    r = sub.r
    if r == 0:
        return np.zeros((obs.design.m1, obs.design.m2))
    if r > min(obs.design.m1, obs.design.m2):
        raise ValueError("subspace rank exceeds matrix dimensions")
    gram = subspace_hessian(obs.design, sub)
    rhs = (sub.U.T @ obs.xty @ sub.V).ravel()
    d = r * r

    if obs.n < d:
        warnings.warn(
            f"{obs.n} observations for {d} coefficients; returning the "
            "minimum-norm solution",
            UnderdeterminedSystemWarning,
            stacklevel=2,
        )

    # below the top n eigenvalues there is only rounding noise, which a
    # relative cutoff alone does not reliably drop from a Gram matrix
    top = min(obs.n, d)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[-top:], eigvecs[:, -top:]
    keep = eigvals > d * np.finfo(float).eps * eigvals[-1]
    kept = int(np.count_nonzero(keep))
    if obs.n >= d and kept < d:
        raise RankDeficiencyError(d - kept)
    basis = eigvecs[:, keep]
    c = basis @ ((basis.T @ rhs) / eigvals[keep])
    return sub.U @ c.reshape(r, r) @ sub.V.T
