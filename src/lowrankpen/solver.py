"""Accelerated proximal-gradient solver for spectrally penalized least squares.

:func:`fit` minimizes ||y - X(Theta)||^2 / (2n) + sum_i p(gamma_i(Theta)), the
sum running over the singular values of Theta, by monotone accelerated
proximal gradient.  Each mechanism is described once, where it is
implemented:

* momentum, restart, monotonicity, the stopping rule, the certificate, the box
  clip and the finisher's gate: :func:`fit`;
* the nuclear-norm warm start: :class:`SolverConfig`;
* the spectral prox and its closed-form/enumeration gate: :func:`_prox_svd`
  and :meth:`~lowrankpen.penalty.PenaltySpec.convex_at`;
* the truncated prox and its inexact allowance: :func:`_truncated_svd`;
* the alternating least-squares finisher: :func:`_als_finish`.

Also provided: the exact smoothness constant of the loss, the rank-restricted
least-squares reference estimator and the numeric rank rule shared by all
experiments.
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
    row_grams,
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

    ``tol`` is the relative iterate change at which :func:`fit` stops and
    reports ``converged``; it does not bound the distance to the fixed point
    (see :class:`FitResult`).  ``eta=None`` sets the step to 1/L, L the exact smoothness
    constant (:func:`estimate_lipschitz`); a positive ``eta`` is a fixed step
    instead.  ``alpha_star`` is the box bound of :func:`fit`.

    ``warm_start="nuclear"`` makes a SCAD/MCP fit first run a nested
    :func:`fit` of the nuclear-norm problem at the same lambda and step, to
    the tolerance sqrt(tol), and start from its iterate, spectrum and
    ``block``: a folded-concave fit needs its convex start only to
    statistical accuracy (Fan, Xue & Zou, Ann. Statist. 2014).
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
    """Solution of one penalized fit plus its convergence record.

    ``converged`` means that the relative iterate change reached ``tol`` or
    that the finisher's certificate passed (:func:`fit`).  It does not bound
    the distance to the fixed point: a fit the finisher does not take can
    stop several ``tol`` from it (9.1e-7, relative, at tol 1e-7 on a
    100 x 100 completion SCAD fit with the finisher switched off).  ``fixed_point_residual`` is the
    certificate, ||T - prox(T - eta grad L(T))||_F at the returned iterate
    by the full SVD.  ``objective_trace`` holds the starting objective, one
    value per accepted step and, when the finisher's point is accepted, its
    objective last.  ``eta`` is the step used and ``restarts`` counts the
    momentum resets.  ``finish_sweeps`` counts the finisher's sweeps, apart
    from ``iterations`` and whether or not its point was accepted; it is 0
    when the finisher did not run.  ``block`` holds the right singular vectors the last prox passes on
    (:func:`_prox_svd`); it is not serialized.
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
    finish_sweeps: int = 0
    block: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "rank_hat": self.rank_hat,
            "iterations": self.iterations,
            "converged": self.converged,
            "fixed_point_residual": self.fixed_point_residual,
            "eta": self.eta,
            "restarts": self.restarts,
            "finish_sweeps": self.finish_sweeps,
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
    """Largest eigenvalue of Theta -> X*(X(Theta))/n, the loss's smoothness
    constant, read exactly from the design's cached Hessian: max(count)/n for
    completion, the top eigenvalue of X^T X / n for sensing."""
    if isinstance(design, CompletionDesign):
        return float(design.weights.max())
    return float(design.gram_eigh[0][-1])


# Truncated prox (see _prox_svd and _truncated_svd)
_TRUNCATE_MIN_DIM = 100  # smallest min(m1, m2) that takes it: the measured crossover
_OVERSAMPLE = 5  # columns carried past the kept rank
_BLOCK_STEPS = 8
_RITZ_TOL = 1e-12
_PROGRESS_FRACTION = 0.2


def _truncated_svd(z: np.ndarray, block: np.ndarray, threshold: float, allowance: float = 0.0):
    """Leading singular triplets of z by block subspace iteration, or None.

    Starts from the columns of ``block`` (approximate right singular vectors,
    as in Soft-Impute, Mazumder, Hastie & Tibshirani 2010) and repeats
    Y = z V, Q = qr(Y), (U_b, s, V^T) = svd(Q^T z), U = Q U_b, for at most
    _BLOCK_STEPS steps.  Exact once the last Ritz value is at most
    ``threshold`` and every kept triplet has ||z v_i - s_i u_i|| <=
    _RITZ_TOL * s_1.  The residuals shrink by about (s_k / s_r)^2 a step
    (s_r the smallest kept Ritz value, s_k the last); once that tolerance is
    out of reach, the block is accepted inexact as soon as the kept residual
    block R = z V_r - U_r S_r has ||R||_F <= ``allowance``, and given up
    once that is out of reach too.  The kept triplets are exact for
    z - R V_r^T, so the prox built from them lies within
    ``allowance`` / (1 - eta * zeta_minus) of prox(z) in the Frobenius norm
    as long as the untracked spectrum stays at or below the threshold.

    :func:`fit` passes ``allowance`` = _PROGRESS_FRACTION times the last
    accepted step ||T_k - T_{k-1}||_F over the momentum weight t_k (zero on a
    fit's first step): an accelerated method weighs the error of step k by
    about k = 2 t_k (an inexact prox step, Schmidt, Le Roux & Bach 2011).

    Returns (U, s, V^T, exact), or None when the block exceeds half of
    min(m1, m2), when every Ritz value is above the threshold, or when the
    allowance is out of reach.
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
    return None


def _prox_svd(spec: PenaltySpec, z: np.ndarray, eta: float, block=None, allowance: float = 0.0):
    """SVD of z, scalar prox of its spectrum, rebuild from the nonzero part.

    The gate: when eta is finite and positive and
    :meth:`~lowrankpen.penalty.PenaltySpec.convex_at` holds (eta * zeta_minus
    < 1), the scalar prox is convex and is the closed form
    :func:`~lowrankpen.penalty.convex_prox`, which zeroes every value at or
    below eta * lambda.  Then, given a ``block`` and min(m1, m2) >=
    _TRUNCATE_MIN_DIM, only the triplets above eta * lambda are computed
    (:func:`_truncated_svd`) and the rest of the spectrum is zero.  Otherwise
    the scalar prox is the enumeration :func:`~lowrankpen.penalty.scalar_prox`
    (which rejects an ``eta`` that is not finite and positive), and the SVD
    is the full one, as it is when the block iteration gives up.

    Returns the prox, its min(m1, m2) singular values (sorted, zeros
    trailing), ``block`` for the next call (the right singular vectors of the
    kept part plus _OVERSAMPLE more) and whether the SVD was exact.
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
    """Proximal map of the spectral penalty by the full SVD (:func:`_prox_svd`).
    A non-finite ``z`` or ``eta`` raises ``ValueError`` before the SVD, which
    may not return on it."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    return _prox_svd(spec, z, eta)[0]


# Finisher (see fit and _als_finish)
_FINISH_AFTER = 3
_FINISH_SWEEPS = 100


def _r_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R_x R_y^T for x = Q_x R_x and y = Q_y R_y: a small matrix with the
    Frobenius norm and nonzero singular values of x y^T, backward stable, so
    [x1, -x0] [y1, y0]^T measures x1 y1^T - x0 y0^T accurately."""
    return np.linalg.qr(x, mode="r") @ np.linalg.qr(y, mode="r").T


def _als_finish(obs: ObservationSet, theta: np.ndarray, frame: np.ndarray, tol: float):
    """Rank-r least-squares completion fit by alternating least squares.

    Starts from B = ``frame``, the r right singular vectors of ``theta``, and
    A = theta B, and alternately minimizes ||y - X(A B^T)||^2 / (2n) exactly
    over A and over B (softImpute-ALS, Hastie, Mazumder, Lee & Zadeh, JMLR
    2015).  The Hessian is diagonal, so row j of A solves
    (B^T diag(w_j) B) a_j = B^T g_j, w_j and g_j the j-th rows of the weights
    and of X*(y)/n: a half-sweep is one product for the r x r Grams
    (:func:`~lowrankpen.operators.row_grams`) and one batched solve.  Stops
    once ||A B^T - previous||_F <= ``tol`` * max(1, ||previous||_F), measured
    on the factors (:func:`_r_product`), or after _FINISH_SWEEPS sweeps.

    Returns (A B^T, its min(m1, m2) singular values, sweeps taken).  The
    matrix and spectrum are None when a row or column has fewer than r
    observed cells (no sweep is taken), when a Gram is singular, or when a
    sweep is not finite.
    """
    w, g = obs.design.weights, obs.xty
    r = frame.shape[1]
    if min(np.count_nonzero(w, axis=1).min(), np.count_nonzero(w, axis=0).min()) < r:
        return None, None, 0
    a, b = theta @ frame, frame
    with np.errstate(over="ignore", invalid="ignore"):
        for sweeps in range(1, _FINISH_SWEEPS + 1):
            try:
                a_new = np.linalg.solve(row_grams(w, b), (g @ b)[..., None])[..., 0]
                b_new = np.linalg.solve(row_grams(w.T, a_new), (g.T @ a_new)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                return None, None, sweeps
            if not (np.isfinite(a_new).all() and np.isfinite(b_new).all()):
                return None, None, sweeps
            move = np.linalg.norm(_r_product(np.hstack([a_new, -a]), np.hstack([b_new, b])))
            scale = max(1.0, np.linalg.norm(_r_product(a, b)))
            a, b = a_new, b_new
            if move <= tol * scale:
                break
        core = _r_product(a, b)
        if not np.isfinite(core).all():
            return None, None, sweeps
    s = np.linalg.svd(core, compute_uv=False)
    return a @ b.T, np.concatenate([s, np.zeros(min(w.shape) - s.size)]), sweeps


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

    Each step extrapolates y = T_k + ((t_k - 1)/t_{k+1})(T_k - T_{k-1}), with
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2, and takes the prox-gradient step at
    y (FISTA).  When the objective there rises above the one at T_k, the step
    is discarded, the momentum is reset (t = 1, counted in ``restarts``) and
    the plain step from T_k is taken (O'Donoghue & Candes 2015); a plain
    step whose prox was inexact and that still rises is redone with the full
    SVD.  The accepted objective sequence is therefore monotone (Li & Lin
    2015) whenever the exact plain step is: for a step of at most 1/L (the
    default ``eta``) and no box clip.  Each step takes one Hessian product,
    H T of its new iterate, which gives T's loss and, H being linear, the
    gradient at the next extrapolated point.

    ``alpha_star`` clips each prox to the box ||T||_inf <= alpha_star: the
    composite prox has no tractable form, so this splitting is a heuristic.

    The stopping rule: ``iterations`` counts accepted steps, and the loop
    stops, ``converged``, once ||T+ - T||_F / max(1, ||T||_F) <= ``tol``, or
    after ``max_iter`` steps.  The certificate ``fixed_point_residual`` is
    ||T - prox(T - eta grad L(T))||_F at the returned iterate, by the full
    SVD and without the clip.  :class:`DivergenceError` is raised when an
    iterate, the objective, the certificate or the spectrum is not finite.

    The finisher's gate: a SCAD/MCP fit on a
    :class:`~lowrankpen.operators.CompletionDesign`, without ``alpha_star``
    and with eta * zeta_minus < 1, runs :func:`_als_finish` once, as soon as
    the kept rank r has held for _FINISH_AFTER accepted steps and every kept
    value is at least nu = b * lambda.  There the penalty is flat, and a
    fixed point is the rank-r least-squares fit on its own frames (the
    oracle property).  It starts from the first r columns of the carried
    block.  Its point is accepted, ``converged``, only when its objective is
    no higher and one full-SVD prox-gradient step from it moves it by at most
    ``tol`` * max(1, ||T||_F); that movement is the certificate.  Otherwise
    the loop goes on, with its momentum reset if a point was rejected.
    """
    design = obs.design
    eta = 1.0 / estimate_lipschitz(design) if config.eta is None else float(config.eta)

    if config.warm_start == WARM_NUCLEAR and spec.family != NUCLEAR:
        # a convex start needs only statistical accuracy, not the final tol
        warm_config = replace(config, warm_start=WARM_ZERO, eta=eta, tol=math.sqrt(config.tol))
        warm = fit(obs, PenaltySpec(NUCLEAR, spec.lam), warm_config)
        theta, spectrum, block = warm.theta_hat, warm.spectrum, warm.block
    else:
        theta = np.zeros((design.m1, design.m2))
        spectrum = np.zeros(min(design.m1, design.m2))
        block = None

    def gradient_step(point: np.ndarray, h_point: np.ndarray) -> np.ndarray:
        """point - eta * (H point - X*(y)/n), built in one new array."""
        z = h_point - obs.xty
        z *= -eta
        z += point
        return z

    def step(point: np.ndarray, h_point: np.ndarray, k: int, block, allowance=0.0):
        """Prox-gradient step from ``point``, given H ``point``: the new iterate,
        H times it, its objective, spectrum and block, and whether it was exact."""
        z = gradient_step(point, h_point)
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

    def residual(point: np.ndarray, arg: np.ndarray) -> float:
        """||T - prox(arg)||_F by the full SVD for arg = T - eta grad L(T), or
        inf unless arg is finite: an SVD of infinities may not return."""
        if not np.isfinite(arg).all():
            return math.inf
        moved = prox_spectral(spec, arg, eta)
        moved -= point
        return float(np.linalg.norm(moved))

    h = apply_hessian(design, theta)
    obj = _objective(obs, spec, theta, h, spectrum)
    trace = [obj]
    theta_prev, h_prev = theta, h
    t = 1.0
    restarts = 0
    converged = False
    iterations = 0
    progress = 0.0  # ||T_k - T_{k-1}||_F of the last accepted step
    fpr = None
    may_finish = (
        isinstance(design, CompletionDesign)
        and math.isfinite(spec.nu)
        and config.alpha_star is None
        and spec.convex_at(eta)
    )
    finish_sweeps = 0
    rank = int(np.count_nonzero(spectrum))
    steady = 0  # accepted steps since the kept rank last changed
    for k in range(1, config.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        extrapolate = momentum > 0.0
        allowance = _PROGRESS_FRACTION * progress / t
        # H is linear: H y = H T_k + momentum (H T_k - H T_{k-1}); the
        # extrapolated pair lives only as long as its step
        theta_new, h_new, obj_new, spectrum, block_new, exact = step(
            theta + momentum * (theta - theta_prev) if extrapolate else theta,
            h + momentum * (h - h_prev) if extrapolate else h,
            k, block, allowance,
        )
        if extrapolate and obj_new > obj:
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
        kept = int(np.count_nonzero(spectrum))
        steady = steady + 1 if kept == rank else 0
        rank = kept
        if may_finish and steady >= _FINISH_AFTER and kept and spectrum[kept - 1] >= spec.nu:
            may_finish = False  # once per fit
            theta_als, spectrum_als, finish_sweeps = _als_finish(
                obs, theta, block[:, :kept], config.tol
            )
            if theta_als is None:
                continue
            # the loop restarts its momentum if it goes on, so T_{k-1} is
            # not held through the certificate's SVD
            theta_prev, h_prev, t = theta, h, 1.0
            # completion's loss reads no H T; the one Hessian product at the
            # point lives only as long as its gradient step
            obj_als = _objective(obs, spec, theta_als, None, spectrum_als)
            fpr_als = residual(
                theta_als, gradient_step(theta_als, apply_hessian(design, theta_als))
            )
            if obj_als <= obj and fpr_als <= config.tol * max(1.0, np.linalg.norm(theta_als)):
                theta, spectrum, fpr = theta_als, spectrum_als, fpr_als
                trace.append(obj_als)
                converged = True
                break

    if fpr is None:
        fpr = residual(theta, gradient_step(theta, h))
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
        finish_sweeps=finish_sweeps,
        block=block,
    )


def solve_oracle(obs: ObservationSet, sub: Subspace) -> np.ndarray:
    """Least-squares fit restricted to the given rank-r subspace.

    Minimizes ||y - X(U C V^T)||^2 / (2n) over the r x r coefficients C by
    one eigendecomposition of the d = r^2 normal matrix
    (:func:`~lowrankpen.operators.subspace_hessian`).  The matrix has rank at
    most n, so only its top min(n, d) eigenpairs are kept, and of those the
    ones above d * eps times the largest; the solution is the minimum-norm
    one on them.  With fewer observations than coefficients a warning is
    issued; otherwise a dropped eigenvalue raises
    :class:`RankDeficiencyError`.
    """
    r = sub.r
    if r == 0:
        return np.zeros((obs.design.m1, obs.design.m2))
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
