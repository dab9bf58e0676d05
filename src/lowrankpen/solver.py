"""Accelerated proximal-gradient solver for spectrally penalized least squares.

:func:`fit` minimizes ||y - X(Theta)||^2 / (2n) + sum_i p(gamma_i(Theta)), the
sum running over the singular values of Theta, by monotone accelerated
proximal gradient.  Each mechanism is described once, where it is
implemented:

* the start, the step, momentum, restart, monotonicity, the stopping rule,
  the certificate and the finisher's gate: :func:`fit`;
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


class DivergenceError(RuntimeError):
    """An iterate, the objective, or the final residual or spectrum became non-finite."""


class RankDeficiencyError(RuntimeError):
    """The reduced normal system of :func:`solve_oracle` is singular, so the
    design does not identify the rank-restricted estimator; this is the
    solve's one failure mode, and no regularization is tried.

    With fewer observations n than the r^2 coefficients, ``null_dim`` is
    r^2 - n, a lower bound on the null dimension (the normal matrix has rank
    at most n); otherwise it counts the eigenvalues of the normal matrix at
    or below the cutoff of :func:`solve_oracle`.
    """

    def __init__(self, null_dim: int):
        super().__init__(f"normal system is rank deficient (null dimension {null_dim})")
        self.null_dim = null_dim


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for :func:`fit`.

    ``tol`` is the relative iterate change at which :func:`fit` stops and
    reports ``converged``; it does not bound the distance to the fixed point
    (see :class:`FitResult`).

    ``warm_start`` accepts only ``"nuclear"`` and is not read: :func:`fit`
    picks its start from the design and the finisher's gate.
    """

    max_iter: int = 2000
    tol: float = 1e-7
    warm_start: str = NUCLEAR

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.warm_start != NUCLEAR:
            raise ValueError(f"warm_start must be {NUCLEAR!r}, got {self.warm_start!r}")


@dataclass(frozen=True)
class FitResult:
    """Solution of one penalized fit plus its convergence record.

    ``converged`` means that the relative iterate change reached ``tol`` or
    that the finisher's certificate passed (:func:`fit`).  Only a fit that
    ends at the finisher's accepted point has its distance to the fixed point
    bounded by the certificate; any other fit (every sensing fit, a
    completion fit outside the finisher's gate or whose finisher gave up or
    was rejected) can stop several ``tol`` from it (9.1e-7, relative, at tol
    1e-7 on a 100 x 100 completion SCAD fit with the finisher switched off).
    ``fixed_point_residual`` is the certificate, ||T - prox(T - eta grad
    L(T))||_F at the returned iterate by the full SVD.  ``objective_trace``
    holds the starting objective, one value per accepted step and, when the
    finisher's point is accepted, its objective last.  ``eta`` is the step
    (:func:`fit`) and ``restarts`` counts the momentum resets.
    ``finish_sweeps`` counts the finisher's sweeps, apart from ``iterations``
    and whether or not its point was accepted; it is 0 when the finisher did
    not run.  ``warm_iterations`` is the nested warm fit's ``iterations``, 0
    without a warm start (:func:`fit`).
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
    warm_iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "rank_hat": self.rank_hat,
            "iterations": self.iterations,
            "converged": self.converged,
            "fixed_point_residual": self.fixed_point_residual,
            "eta": self.eta,
            "restarts": self.restarts,
            "finish_sweeps": self.finish_sweeps,
            "warm_iterations": self.warm_iterations,
            "spectrum": [float(s) for s in self.spectrum],
        }


_RANK_TOL_REL = 1e-4


def numeric_rank(spectrum) -> int:
    """Count singular values strictly above _RANK_TOL_REL = 1e-4 times the
    largest one; :func:`fit` reports its rank by this rule."""
    s = np.asarray(spectrum, dtype=float)
    if s.size and s.min() < 0:
        raise ValueError("spectrum entries must be nonnegative")
    if s.size == 0 or s.max() == 0.0:
        return 0
    return int(np.count_nonzero(s > _RANK_TOL_REL * s.max()))


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
    accepted step ||T_k - T_{k-1}||_F over the momentum weight t_k to a
    momentum step only: an accelerated method weighs the error of step k by
    about k = 2 t_k (an inexact prox step, Schmidt, Le Roux & Bach 2011).  A
    plain step (the first, a restart's, the one after a declined finish)
    gets none, so it is exact or takes the full SVD.

    Returns (U, s, V^T), or None when the block exceeds half of
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
            return u, s, vt
        rate = (s[-1] / s[r - 1]) ** (2 * steps_left)
        if worst * rate > tol:
            kept = np.linalg.norm(resid)
            if kept <= allowance:
                return u, s, vt
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
    trailing) and ``block`` for the next call (the right singular vectors of
    the kept part plus _OVERSAMPLE more).
    """
    svd = None
    convex = 0.0 < eta < math.inf and spec.convex_at(eta)
    if block is not None and min(z.shape) >= _TRUNCATE_MIN_DIM and convex:
        svd = _truncated_svd(z, block, eta * spec.lam, allowance)
    p, s, qt = np.linalg.svd(z, full_matrices=False) if svd is None else svd
    s_new = convex_prox(spec, s, eta) if convex else scalar_prox(spec, s, eta)
    r = int(np.count_nonzero(s_new))
    theta = (p[:, :r] * s_new[:r]) @ qt[:r]
    if svd is not None:  # the untracked rest of the spectrum is zero
        s_new = np.concatenate([s_new, np.zeros(min(z.shape) - s_new.size)])
    return theta, s_new, qt[: r + _OVERSAMPLE].T


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
_FINISH_SWEEPS = 70


def _r_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R_x R_y^T for x = Q_x R_x and y = Q_y R_y: a small matrix with the
    Frobenius norm and nonzero singular values of x y^T, backward stable, so
    [x1, -x0] [y1, y0]^T measures x1 y1^T - x0 y0^T accurately."""
    return np.linalg.qr(x, mode="r") @ np.linalg.qr(y, mode="r").T


def _als_finish(
    obs: ObservationSet, theta: np.ndarray, frame: np.ndarray, tol: float, ridge: float
):
    """Rank-r completion fit by alternating ridge least squares.

    Alternately minimizes ||y - X(A B^T)||^2 / (2n) + ``ridge`` (||A||_F^2 +
    ||B||_F^2) / 2 exactly over A and over B (softImpute-ALS, Hastie,
    Mazumder, Lee & Zadeh, JMLR 2015).  With ridge 0 this is the rank-r
    least-squares fit.  With ridge lambda it is the nuclear-norm fit
    restricted to rank r, since ||T||_* is the least (||A||_F^2 +
    ||B||_F^2) / 2 over A B^T = T (Mazumder, Hastie & Tibshirani, JMLR 2010).
    Either starts balanced from V = ``frame``, the r right singular vectors
    of ``theta`` = U S V^T: A = U sqrt(S), B = V sqrt(S).  The Hessian is
    diagonal, so row j of A solves (B^T diag(w_j) B + ridge I) a_j = B^T g_j,
    w_j and g_j the j-th rows of the weights and of X*(y)/n: a half-sweep is
    one product for the r x r Grams
    (:func:`~lowrankpen.operators.row_grams`) and one batched solve.
    Stops once ||A B^T - previous||_F <= ``tol`` * max(1, ||previous||_F),
    measured on the factors (:func:`_r_product`).  From the third sweep on
    (the first moves still carry the start), a move that shrank by q from
    the last one is extrapolated as move * q^k over the k sweeps left to
    _FINISH_SWEEPS; when that misses the tolerance, the finisher gives up,
    as :func:`_truncated_svd` does.  A contraction that slow would also stop
    about q / (1 - q) moves from the fixed point, where the certificate
    fails.

    Returns (A B^T, its min(m1, m2) singular values, sweeps taken).  The
    matrix and spectrum are None when a row or column has fewer than r
    observed cells (no sweep is taken), when a Gram is singular, when a
    sweep is not finite, or when the finisher gives up.
    """
    w, g = obs.design.weights, obs.xty
    r = frame.shape[1]
    if min(np.count_nonzero(w, axis=1).min(), np.count_nonzero(w, axis=0).min()) < r:
        return None, None, 0
    a = theta @ frame
    root = np.sqrt(np.linalg.norm(a, axis=0))  # sqrt(S): theta V = U S
    a, b = a / root, frame * root
    shift = ridge * np.eye(r)

    def solve_rows(weights, frame, rhs):
        grams = row_grams(weights, frame)
        grams += shift
        return np.linalg.solve(grams, rhs[..., None])[..., 0]

    with np.errstate(over="ignore", invalid="ignore"):
        for sweeps in range(1, _FINISH_SWEEPS + 1):
            try:
                a_new = solve_rows(w, b, g @ b)
                b_new = solve_rows(w.T, a_new, g.T @ a_new)
            except np.linalg.LinAlgError:
                return None, None, sweeps
            if not (np.isfinite(a_new).all() and np.isfinite(b_new).all()):
                return None, None, sweeps
            move = np.linalg.norm(_r_product(np.hstack([a_new, -a]), np.hstack([b_new, b])))
            scale = max(1.0, np.linalg.norm(_r_product(a, b)))
            a, b = a_new, b_new
            if move <= tol * scale:
                break
            rate = move / last if sweeps > 2 else 1.0
            if rate < 1.0 and move * rate ** (_FINISH_SWEEPS - sweeps) > tol * scale:
                return None, None, sweeps
            last = move
        core = _r_product(a, b)
        if not np.isfinite(core).all():
            return None, None, sweeps
    s = np.linalg.svd(core, compute_uv=False)
    return a @ b.T, np.concatenate([s, np.zeros(min(w.shape) - s.size)]), sweeps


def _objective(obs: ObservationSet, spec: PenaltySpec, theta, h_theta, spectrum):
    # overflow to inf is the divergence signal handled by the caller
    with np.errstate(over="ignore"):
        return loss_value(obs, theta, h_theta) + float(np.sum(penalty_value(spec, spectrum)))


def fit(obs: ObservationSet, spec: PenaltySpec, config: SolverConfig = SolverConfig()) -> FitResult:
    """Run the accelerated proximal-gradient iteration to a fixed point.

    The step is eta = 1/L, L the exact smoothness constant
    (:func:`estimate_lipschitz`).  Each step extrapolates y = T_k +
    ((t_k - 1)/t_{k+1})(T_k - T_{k-1}), with t_{k+1} = (1 + sqrt(1 +
    4 t_k^2))/2, and takes the prox-gradient step at y (FISTA; Beck &
    Teboulle 2009).  When the objective there rises above
    the one at T_k, the step is discarded and the momentum is reset (t = 1,
    counted in ``restarts``), so the next pass is the plain step from T_k
    (O'Donoghue & Candes 2015); a discarded step is not counted against
    ``max_iter``.  A plain step is exact (:func:`_truncated_svd`)
    and at 1/L does not raise the objective, so the accepted objective
    sequence is monotone (Li & Lin 2015).  Each step takes one Hessian
    product, H T of its new iterate, which gives T's loss and, H being
    linear, the gradient at the next extrapolated point.

    The stopping rule: ``iterations`` counts accepted steps, and the loop
    stops, ``converged``, once ||T+ - T||_F / max(1, ||T||_F) <= ``tol``, or
    after ``max_iter`` steps.  The certificate ``fixed_point_residual`` is
    ||T - prox(T - eta grad L(T))||_F at the returned iterate, by the full
    SVD.  :class:`DivergenceError` is raised when an iterate, the objective,
    the certificate or the spectrum is not finite.

    The finisher's gate: a fit on a
    :class:`~lowrankpen.operators.CompletionDesign` with eta * zeta_minus
    < 1 runs :func:`_als_finish` once, as soon as the kept rank r has held for
    _FINISH_AFTER accepted steps and, for SCAD/MCP, every kept value is at
    least nu = b * lambda.  There the SCAD/MCP penalty is flat, and a fixed
    point is the rank-r least-squares fit on its own frames (the oracle
    property): the finisher runs with ridge 0.  A nuclear-norm fixed point of
    rank r is the rank-r fit with ridge lambda.  It starts from the first r
    columns of the carried block.  Its point is accepted, ``converged``, only
    when its objective is no higher and one full-SVD prox-gradient step from
    it moves it by at most ``tol`` * max(1, ||T||_F); that movement is the
    certificate, so a point that is not the fixed point is rejected.
    Otherwise the loop goes on, with its momentum reset if a point was
    rejected.

    The start: a SCAD/MCP fit that the finisher cannot take (a sensing fit,
    or a completion fit with eta * zeta_minus >= 1) first runs a nested
    :func:`fit` of the nuclear-norm problem at the same lambda, to the
    tolerance sqrt(tol), and starts from its iterate and spectrum: a
    folded-concave fit needs a convex start, and only to statistical accuracy
    (Fan, Xue & Zou, Ann. Statist. 2014).  From zero, SCAD fits (b = 3.7) of
    20 x 20 rank-5 sensing problems with n = 300 recovered the rank on 0 of
    15 trials, with a median relative error of 0.51; from the nuclear start
    on 15 of 15, with 0.0071.  Every other fit starts from zero: a fit inside
    the gate from zero reached the same certified points (to 1e-7, relative)
    in fewer prox steps than from the nuclear start, its steps included: 228
    against 296 over the first four repeats of the criterion-4 grid (SCAD
    and nuclear fits together), and 21 against 28 over ``fit`` and
    ``evaluate`` of a rank-5 200 x 200 completion file.
    """
    design = obs.design
    eta = 1.0 / estimate_lipschitz(design)
    # the finisher's gate short of the kept-rank condition
    may_finish = isinstance(design, CompletionDesign) and spec.convex_at(eta)
    warm_iterations = 0
    if spec.family != NUCLEAR and not may_finish:
        # a convex start needs only statistical accuracy, not the final tol
        warm = fit(obs, PenaltySpec(NUCLEAR, spec.lam), replace(config, tol=math.sqrt(config.tol)))
        theta, spectrum, warm_iterations = warm.theta_hat, warm.spectrum, warm.iterations
        del warm  # its iterate is not held through the loop's SVDs
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
        H times it, its objective, spectrum and block."""
        z = gradient_step(point, h_point)
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"iterate became non-finite at iteration {k}")
        theta_new, spectrum, block = _prox_svd(spec, z, eta, block, allowance)
        h_new = apply_hessian(design, theta_new)
        obj = _objective(obs, spec, theta_new, h_new, spectrum)
        if not math.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at iteration {k}")
        return theta_new, h_new, obj, spectrum, block

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
    ridge, finish_nu = (spec.lam, 0.0) if spec.family == NUCLEAR else (0.0, spec.nu)
    finish_sweeps = 0
    rank = int(np.count_nonzero(spectrum))
    steady = 0  # accepted steps since the kept rank last changed
    while iterations < config.max_iter:
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        extrapolate = momentum > 0.0
        # H is linear: H y = H T_k + momentum (H T_k - H T_{k-1}); the
        # extrapolated pair lives only as long as its step
        theta_new, h_new, obj_new, spectrum_new, block_new = step(
            theta + momentum * (theta - theta_prev) if extrapolate else theta,
            h + momentum * (h - h_prev) if extrapolate else h,
            iterations + 1, block, _PROGRESS_FRACTION * progress / t if extrapolate else 0.0,
        )
        if extrapolate and obj_new > obj:
            restarts += 1
            t, theta_prev, h_prev = 1.0, theta, h
            # the discarded step is not held through the plain step's prox,
            # which may take the full SVD
            del theta_new, h_new
            continue
        trace.append(obj_new)
        progress = float(np.linalg.norm(theta_new - theta))
        rel = progress / max(1.0, np.linalg.norm(theta))
        theta_prev, h_prev, theta, h = theta, h, theta_new, h_new
        obj, t, block, spectrum = obj_new, t_next, block_new, spectrum_new
        iterations += 1
        if rel <= config.tol:
            converged = True
            break
        kept = int(np.count_nonzero(spectrum))
        steady = steady + 1 if kept == rank else 0
        rank = kept
        if may_finish and steady >= _FINISH_AFTER and kept and spectrum[kept - 1] >= finish_nu:
            may_finish = False  # once per fit
            theta_als, spectrum_als, finish_sweeps = _als_finish(
                obs, theta, block[:, :kept], config.tol, ridge
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
        rank_hat=numeric_rank(spectrum),
        iterations=iterations,
        objective_trace=np.asarray(trace),
        fixed_point_residual=fpr,
        converged=converged,
        eta=eta,
        restarts=restarts,
        finish_sweeps=finish_sweeps,
        warm_iterations=warm_iterations,
    )


def solve_oracle(obs: ObservationSet, sub: Subspace) -> np.ndarray:
    """Least-squares fit restricted to the given rank-r subspace.

    Minimizes ||y - X(U C V^T)||^2 / (2n) over the r x r coefficients C by
    one eigendecomposition of the d = r^2 normal matrix
    (:func:`~lowrankpen.operators.subspace_hessian`).  The one failure mode
    is an unidentified system, which raises :class:`RankDeficiencyError`:
    with n < d before any decomposition, since the matrix then has rank at
    most n, and otherwise when an eigenvalue falls at or below d * eps times
    the largest.
    """
    r = sub.r
    if r == 0:
        return np.zeros((obs.design.m1, obs.design.m2))
    d = r * r
    if obs.n < d:
        raise RankDeficiencyError(d - obs.n)
    gram = subspace_hessian(obs.design, sub)
    rhs = (sub.U.T @ obs.xty @ sub.V).ravel()
    eigvals, eigvecs = np.linalg.eigh(gram)
    kept = int(np.count_nonzero(eigvals > d * np.finfo(float).eps * eigvals[-1]))
    if kept < d:
        raise RankDeficiencyError(d - kept)
    c = eigvecs @ ((eigvecs.T @ rhs) / eigvals)
    return sub.U @ c.reshape(r, r) @ sub.V.T
