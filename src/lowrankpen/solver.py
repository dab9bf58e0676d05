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
step.  Once a SCAD/MCP completion fit's kept singular values all sit in the
penalty's flat region, where the fit is the rank-r least-squares fit on its
own frames (the oracle property), an alternating least-squares finisher
solves that problem directly, and one full-SVD prox-gradient step from its
point certifies it as a fixed point.  An optional entrywise box constraint
||Theta||_inf <= alpha* is enforced by clipping after the prox; the composite
prox of box + spectral penalty has no tractable form, so this splitting is a
documented heuristic.

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

    ``objective_trace`` holds the starting objective, one value per
    accepted step and, when the finisher's point is accepted, its objective
    last; ``eta`` is the step size used and ``restarts`` the number
    of momentum resets.  ``finish_sweeps`` counts the sweeps of the
    alternating least-squares finisher (see :func:`fit`), whether or not its
    point was accepted; it is 0 when the finisher did not run, and the
    sweeps are not in ``iterations``.  ``block`` holds the right singular
    vectors the last prox step passes on (see :func:`_prox_svd`); a fit
    warm-started from this one starts its truncated prox from them.  It is
    not serialized.
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


# Finisher (see fit): the accepted steps the kept rank must hold before it
# runs, and the most alternating least-squares sweeps it takes.
_FINISH_AFTER = 3
_FINISH_SWEEPS = 100


def _r_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R_x R_y^T for x = Q_x R_x and y = Q_y R_y: a small matrix with the
    Frobenius norm and the nonzero singular values of x y^T, which is never
    formed.  Backward stable, so a difference of two products written as
    [x1, -x0] [y1, y0]^T keeps its accuracy."""
    return np.linalg.qr(x, mode="r") @ np.linalg.qr(y, mode="r").T


def _als_finish(obs: ObservationSet, theta: np.ndarray, frame: np.ndarray, tol: float):
    """Rank-r least-squares completion fit by alternating least squares.

    Starts from B = ``frame``, the r right singular vectors of ``theta``,
    and A = theta B, so that A B^T = theta, and alternately minimizes
    ||y - X(A B^T)||^2 / (2n) exactly over A and over B.  The Hessian is
    diagonal, so the rows of A are independent: row j solves
    (B^T diag(w_j) B) a_j = B^T g_j, with w_j and g_j the j-th rows of the
    weights and of X*(y)/n.  A half-sweep is one product for the r x r Grams
    (:func:`~lowrankpen.operators.row_grams`) and one batched solve
    (softImpute-ALS, Hastie, Mazumder, Lee & Zadeh, JMLR 2015).  Stops once
    the product moves by ||A B^T - previous||_F <= ``tol`` *
    max(1, ||previous||_F), or after _FINISH_SWEEPS sweeps.  The sweeps keep
    to the factors (:func:`_r_product` measures the move), so no m1 x m2
    matrix is made before the result.

    Returns (A B^T, its min(m1, m2) singular values, sweeps taken).  The
    matrix and spectrum are None when a row or column has fewer than r
    observed cells (its Gram is singular, and no sweep is taken), when a
    Gram is singular, or when a sweep is not finite.
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

    A SCAD/MCP fit on a :class:`~lowrankpen.operators.CompletionDesign`,
    without ``alpha_star`` and at a step with eta * zeta_minus < 1, tries an
    alternating least-squares finisher once: as soon as the kept rank r
    (the nonzero values of the last prox) has held for _FINISH_AFTER
    accepted steps and every kept value is at least nu = b * lambda.  There
    the penalty is flat, so a fixed point is a stationary point of rank-r
    least squares whose gradient has spectral norm at most lambda off its
    frames.  The finisher (:func:`_als_finish`) starts from A = T B, with B
    the first r columns of the carried block (T's right singular vectors),
    and sweeps to the same relative-change tolerance.  Its point is
    accepted only when its objective is no higher than the last accepted
    one and one full-SVD prox-gradient step from it moves it by at most
    ``config.tol`` * max(1, ||T||_F); that step's movement is the returned
    ``fixed_point_residual``, so the certificate stays exact, and its
    objective ends ``objective_trace``.  Otherwise (a row or column with
    fewer than r observed cells, a singular or non-finite Gram, a higher
    objective or a larger step) the loop goes on from where it was; after a
    rejected point, with its momentum reset.
    ``finish_sweeps`` counts the sweeps, which are not ``iterations``.  The
    finisher adds one Hessian product, at its point; when accepted, its
    certificate is the fit's last prox.
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

    def gradient_step(point: np.ndarray, h_point: np.ndarray) -> np.ndarray:
        """point - eta * (H point - X*(y)/n), built in one new array."""
        z = h_point - obs.xty
        z *= -eta
        z += point
        return z

    def step(point: np.ndarray, h_point: np.ndarray, k: int, block, allowance=0.0):
        """Prox-gradient step from ``point``, given H ``point``: the new
        iterate, H times it, its objective, its singular values, the next
        block and whether the prox was exact."""
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
        """||T - prox(arg)||_F by the full SVD for the gradient step
        arg = T - eta grad L(T), or inf unless arg is finite: an SVD of
        infinities may not return."""
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
