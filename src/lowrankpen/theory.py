"""Executable diagnostics for the estimation-error theory.

Every bound and condition the estimator's analysis rests on is evaluated
numerically here so that simulation trials can check it on realized data:
the spectral split of the true singular values at the flatness threshold,
the two-part Frobenius error bound, the slack in the oracle-property
condition (under which the penalized and rank-restricted estimators
coincide), the standard and exact-recovery regularization rules, the cone
membership test for error directions, an empirical restricted-curvature
probe, and the singular-value perturbation (Weyl) check.

Population curvature constants are unknowable from data, so all bounds are
evaluated with the empirical estimates returned by :func:`probe_rsc` and
labeled as such by callers.  Unspecified rule constants are a single
multiplier ``c`` of each rule function, default
:data:`DEFAULT_RULE_CONSTANT` = 2.0, the constant of the theoretical
threshold, which the simulation lab and the CLI use, except that the lab
takes the oracle rule's noise term as the standard rule at c = 1.
Logarithms in the rate formulas are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lowrankpen.operators import (
    Design,
    SensingDesign,
    Subspace,
    hessian_product,
    subspace_hessian,
)

DEFAULT_RULE_CONSTANT = 2.0
CONE_FACTOR = 5.0


class CurvatureConditionError(ValueError):
    """The bound requires curvature strictly above the concavity level."""


@dataclass(frozen=True)
class SpectralSplit:
    """Indices of nonzero true singular values, split at the threshold nu.

    ``s1`` holds indices with value >= nu, ``s2`` those strictly between 0
    and nu; ``s`` is their disjoint union.
    """

    s: tuple[int, ...]
    s1: tuple[int, ...]
    s2: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.s)

    @property
    def r1(self) -> int:
        return len(self.s1)

    @property
    def r2(self) -> int:
        return len(self.s2)


@dataclass(frozen=True)
class CurvatureEstimate:
    """Empirical restricted curvature range of the sampling operator."""

    kappa_hat: float
    rho_hat: float


@dataclass(frozen=True)
class ErrorBoundReport:
    """Two-part Frobenius error bound evaluated at given constants."""

    part_s1: float
    part_s2: float
    total: float


def split_spectrum(gamma_star, nu: float) -> SpectralSplit:
    """Partition nonzero singular values at nu (zeros belong to neither side)."""
    g = np.asarray(gamma_star, dtype=float)
    if g.size and g.min() < 0:
        raise ValueError("singular values must be nonnegative")
    if not nu > 0:
        raise ValueError("nu must be positive")
    s = tuple(int(i) for i in np.flatnonzero(g > 0))
    s1 = tuple(i for i in s if g[i] >= nu)
    s2 = tuple(i for i in s if g[i] < nu)
    return SpectralSplit(s=s, s1=s1, s2=s2)


def error_bound_general(
    tau: float, lam: float, kappa: float, zeta_minus: float, r1: int, r2: int
) -> ErrorBoundReport:
    """Two-part error bound: tau*sqrt(r1)/(kappa - zeta) + 3*lambda*sqrt(r2)/(kappa - zeta)."""
    if zeta_minus < 0:
        raise ValueError("zeta_minus must be nonnegative")
    if not kappa > zeta_minus:
        raise CurvatureConditionError(
            f"requires kappa > zeta_minus, got kappa={kappa}, zeta_minus={zeta_minus}"
        )
    gap = kappa - zeta_minus
    part_s1 = tau * math.sqrt(r1) / gap
    part_s2 = 3.0 * lam * math.sqrt(r2) / gap
    return ErrorBoundReport(part_s1=part_s1, part_s2=part_s2, total=part_s1 + part_s2)


def oracle_condition_gap(
    gamma_star, nu: float, r: int, adj_noise_over_n: float, kappa: float
) -> float:
    """Slack in the smallest-singular-value condition for exact rank recovery.

    Returns min over nonzero values of gamma* minus
    (nu + 2*sqrt(r)*adj_noise_over_n/kappa), ``adj_noise_over_n`` being
    ||X*(eps)||_2/n as in :func:`lambda_oracle_rule`; positive means the
    rank-restricted estimator and the penalized one provably coincide.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    g = np.asarray(gamma_star, dtype=float)
    nonzero = g[g > 0]
    if nonzero.size == 0:
        raise ValueError("gamma_star has no nonzero entries")
    threshold = nu + 2.0 * math.sqrt(r) * adj_noise_over_n / kappa
    return float(nonzero.min() - threshold)


def lambda_completion(
    sigma: float, m1: int, m2: int, n: int, c: float = DEFAULT_RULE_CONSTANT
) -> float:
    """Regularization rule for completion: c*sigma*sqrt(M*log(M)/(m1*m2*n))."""
    big_m = max(m1, m2)
    return c * sigma * math.sqrt(big_m * math.log(big_m) / (m1 * m2 * n))


def lambda_sensing(
    sigma: float, m1: int, m2: int, n: int, c: float = DEFAULT_RULE_CONSTANT
) -> float:
    """Regularization rule for sensing with an isotropic design (pi(Sigma) = 1):
    c*sigma*(sqrt(m1/n)+sqrt(m2/n))."""
    return c * sigma * (math.sqrt(m1 / n) + math.sqrt(m2 / n))


def lambda_oracle_rule(
    adj_noise_over_n: float, r: int, rho: float, kappa: float, c: float = DEFAULT_RULE_CONSTANT
) -> float:
    """Exact-recovery rule c*(||X*(eps)||_2/n)*(1 + sqrt(r)*rho/kappa).

    ``adj_noise_over_n`` is the (estimated or measured) spectral norm of the
    noise image under the adjoint, divided by n.  At c = 2 this reproduces
    the theoretical threshold; in experiments the noise term is instantiated
    from the known sigma and empirical curvature estimates, so the rule is
    an approximation and is recorded as such.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    return c * adj_noise_over_n * (1.0 + math.sqrt(r) * rho / kappa)


def _nuclear_norms(cores: np.ndarray) -> np.ndarray:
    """Nuclear norms of a (..., p, q) stack of cores: one batched singular-value call.

    P(A) = U (U^T A V) V^T and P_perp(B) = U_perp (U_perp^T B V_perp) V_perp^T
    with orthonormal frames, so their nuclear norms are those of the r x r
    core U^T A V and the (m1 - r) x (m2 - r) core U_perp^T B V_perp, matrices
    smaller than m1 x m2.
    """
    return np.linalg.svd(cores, compute_uv=False).sum(axis=-1)


def cone_condition(delta: np.ndarray, sub: Subspace) -> tuple[float, bool]:
    """Nuclear-norm ratio of the complement part to the aligned part.

    Returns ``(ratio, in_cone)`` where the direction is in the cone when the
    complement's nuclear norm is at most five times the aligned part's.
    """
    u_perp, v_perp = sub.complement
    aligned = _nuclear_norms(sub.U.T @ delta @ sub.V)
    complement = _nuclear_norms(u_perp.T @ delta @ v_perp)
    ratio = float(complement / max(aligned, 1e-300))
    return ratio, bool(complement <= CONE_FACTOR * aligned)


_REFINE_SUBSPACE = 60


def _refined_extrema(design: SensingDesign, sub: Subspace) -> tuple[float, float] | None:
    """Cone-feasible near-extremal curvature values via the exact Hessian H.

    Candidates, none of which takes an m1 x m2 Hessian product:

    * the extreme eigenvalues of K = :func:`subspace_hessian`, exact values
      of the unit aligned directions U C V^T, which lie in the cone;
    * within the bottom (and top) eigen-subspaces of H (its cached
      eigendecomposition), spanned by eigenvectors B_1..B_k with eigenvalues
      lambda_i, the unit direction D = sum_i w_i B_i of largest aligned-core
      mass p = ||C||_F^2, C = sum_i w_i U^T B_i V (w the top left singular
      vector of the k x r^2 stack of the cores), pulled into the cone by
      scaling D - P(D) by s = min(1, 5/ratio), ratio from
      :func:`cone_condition`.  Its value is v(s) of :func:`_curvature_model`
      with a = vec(C)^T K vec(C), h = <P(D), HD> = <C, sum_i lambda_i w_i
      U^T B_i V>, b = h - a, c = q(D) - 2h + a, q(D) = sum_i lambda_i w_i^2
      and p_perp = 1 - p.

    The eigen-subspace directions reach the near-zero curvature that random
    sampling misses when n is comparable to m1*m2; K's extremes make the
    range a function of the design when m1*m2 <= ``_REFINE_SUBSPACE``, where
    a block holds every aligned direction at full core mass.  None when
    r = 0: the cone then holds no unit direction.
    """
    if sub.r == 0:
        return None
    m1, m2 = design.m1, design.m2
    eigvals, eigvecs = design.gram_eigh
    k_mat = subspace_hessian(design, sub)

    def block_value(block: slice) -> float | None:
        basis, lam = eigvecs[:, block], eigvals[block]
        cores = (sub.U.T @ basis.T.reshape(-1, m1, m2) @ sub.V).reshape(basis.shape[1], -1)
        w = np.linalg.svd(cores)[0][:, 0]
        core = w @ cores
        mass = float(core @ core)
        if mass == 0.0:
            return None
        ratio, in_cone = cone_condition((basis @ w).reshape(m1, m2), sub)
        a = float(core @ k_mat @ core)
        h = float(core @ ((lam * w) @ cores))
        s = 1.0 if in_cone else CONE_FACTOR / ratio
        return _curvature_model(a, h - a, float(lam @ (w * w)) - 2.0 * h + a, mass, 1.0 - mass, s)

    k = min(_REFINE_SUBSPACE, m1 * m2)
    null_tol = 1e-12 * max(eigvals[-1], 0.0)
    null_dim = int(np.count_nonzero(eigvals <= null_tol))
    aligned = np.linalg.eigvalsh(k_mat)
    low_candidates = [aligned[0], block_value(slice(0, k))]
    if 0 < null_dim < k:
        low_candidates.append(block_value(slice(0, null_dim)))
    # a value no larger than a null eigenvalue is zero curvature, not rounding noise
    low = min(v if v > null_tol else 0.0 for v in low_candidates if v is not None)
    high = max(v for v in (aligned[-1], block_value(slice(-k, None))) if v is not None)
    return float(low), float(high)


# directions stacked per chunk: large enough to amortize the per-call cost of
# the batched products, small enough that the chunk's arrays (the draws, the
# aligned and complement parts P and Q, and their Hessian images HP and HQ)
# stay a few hundred kilobytes (stacking all directions at once grows the
# peak memory)
_PROBE_CHUNK = 25

# padding of the curvature bounds, relative to the chunk's value scale: far
# above the rounding of either evaluation, far below the spread of the values
_BOUND_PAD = 1e-6


def _curvature_model(a, b, c, p, p_perp, s):
    """v(s) = (a + 2bs + cs^2) / (p + s^2 p_perp), elementwise (see :func:`probe_rsc`)."""
    return (a + s * (2.0 * b + c * s)) / (p + s * s * p_perp)


def _value_bounds(a, b, c, p, p_perp, s_lo, s_hi) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on v(s) = (a + 2bs + cs^2) / (p + s^2 p_perp) over [s_lo, s_hi].

    All arguments are arrays over a chunk of directions.  The extremes of v on
    the interval lie at its ends or at its stationary points, the real roots
    of b p_perp s^2 + (a p_perp - c p) s - b p = 0 (clipped into the
    interval, where they can only add values v takes there).  The bounds are
    padded by ``_BOUND_PAD`` times the chunk's value scale, the largest of
    (|a| + 2|b|s + |c|s^2) / (p + s^2 p_perp) over the points taken, plus the
    smallest normal float (what underflow can lose), and clipped at zero as
    :func:`~lowrankpen.operators.quadratic_form` clips.
    A direction with p = 0 gets the bounds (0, inf), which no extreme can
    exclude.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lin = a * p_perp - c * p
        t = lin + np.copysign(np.sqrt(lin * lin + 4.0 * b * b * p * p_perp), lin)
        roots = np.stack([-t / (2.0 * b * p_perp), 2.0 * b * p / t])
        s = np.concatenate([np.stack([s_lo, s_hi]), np.fmin(np.fmax(roots, s_lo), s_hi)])
        values = _curvature_model(a, b, c, p, p_perp, s)
        terms = _curvature_model(np.abs(a), np.abs(b), np.abs(c), p, p_perp, s)
    bounded = p > 0
    pad = _BOUND_PAD * float(np.max(terms, where=bounded, initial=0.0)) + np.finfo(float).tiny
    lo = np.maximum(values.min(axis=0, where=bounded, initial=math.inf) - pad, 0.0)
    hi = np.maximum(values.max(axis=0, where=bounded, initial=-math.inf) + pad, 0.0)
    return np.where(bounded, lo, 0.0), np.where(bounded, hi, math.inf)


def probe_rsc(
    design: Design,
    sub: Subspace,
    trials: int,
    rng: np.random.Generator,
) -> CurvatureEstimate:
    """Empirical curvature range of Delta -> ||X(Delta)||^2 / n over the cone.

    For the quadratic loss the Taylor remainder equals ||X(Delta)||^2 / n
    exactly, so sampled cone directions give direct curvature observations.
    Directions combine a random aligned component with a complement component
    whose nuclear-norm ratio is drawn uniformly in [0, 5] to cover the cone
    up to its boundary; each is normalized to unit Frobenius norm.  The
    minimum is the curvature estimate kappa_hat; the maximum is a lower
    bound on the true smoothness constant and is recorded as rho_hat.

    Draw order (a contract: callers draw from ``rng`` afterwards, and a
    trial's later draws are replayed from its seed).  Direction i draws, in
    this order, ``standard_normal((m1, m2))`` for the aligned part,
    ``uniform(0, 5)`` for the ratio and, exactly when 0 < r < min(m1, m2),
    ``standard_normal((m1, m2))`` for the complement part.  Nothing else is
    drawn, so the number of draws depends only on ``trials``, the shape and
    r, never on the values drawn.

    The draws are taken one direction at a time, the linear algebra a chunk
    of ``_PROBE_CHUNK`` stacked directions at a time.  With the r x r cores
    C = U^T A V and the (m1 - r) x (m2 - r) cores C_perp = U_perp^T B V_perp,
    direction i is P + s Q, normalized, where P = U C V^T and
    Q = U_perp C_perp V_perp^T are orthogonal and s = ratio ||C||_* /
    ||C_perp||_* (s = 0 without a complement part).  Its value is therefore
    v(s) = (a + 2bs + cs^2) / (p + s^2 p_perp) (:func:`_curvature_model`)
    with a = q(P), b = <P, HQ>, c = q(Q), p = ||C||_F^2 and
    p_perp = ||C_perp||_F^2, read off P, Q and their Hessian images HP, HQ
    (:func:`~lowrankpen.operators.hessian_product`), formed once per chunk.
    Since ||X||_F <= ||X||_* <= sqrt(rank) ||X||_F, s lies in
    [ratio ||C||_F / (sqrt(min(m1, m2) - r) ||C_perp||_F),
    ratio sqrt(r) ||C||_F / ||C_perp||_F], and :func:`_value_bounds` bounds v
    over that range from its ends and its stationary points, padded and
    clipped at zero.  Only a nonzero direction (p > 0) whose interval
    reaches the running minimum or maximum (each first moved to the chunk's
    best bound: the smallest upper bound, the largest lower bound) is
    valued, by the same v at the drawn s, clipped at zero as
    :func:`~lowrankpen.operators.quadratic_form` clips; s takes the nuclear
    norms of the sub-stack of such directions' cores, by one batched
    singular-value call each (the helper :func:`cone_condition` uses).  A
    direction left out lies above the running minimum or above another
    direction's upper bound, and below the running maximum or below another
    direction's lower bound, so it can set neither extreme: kappa_hat and
    rho_hat equal, to rounding, those of the one-direction-at-a-time loop
    that rebuilds each direction and takes its quadratic form.

    On a sensing design the sampled range is widened by cone-feasible
    directions from the exact Hessian, valued by the same v
    (:func:`_refined_extrema`), driving kappa_hat toward the cone
    infimum instead of the sampled minimum.  The refinement runs before the
    sampling and seeds both running extremes, so few sampled directions
    reach them.  Plain sampling concentrates near the typical curvature and
    can overstate the infimum badly (for Gaussian sensing with n close to
    m1*m2 the infimum is essentially zero while the sampled minimum stays
    near one), which turns curvature-gap hypotheses vacuously true.  A
    completion design is sampled only: there the non-spiky random directions
    match the spikiness-restricted curvature that the completion theory
    relies on, so sampling is the faithful estimate.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m1, m2 = design.m1, design.m2
    with_complement = 0 < sub.r < min(m1, m2)
    u_perp, v_perp = sub.complement
    kappa_hat = math.inf
    rho_hat = -math.inf
    if isinstance(design, SensingDesign):
        extrema = _refined_extrema(design, sub)
        if extrema is not None:
            kappa_hat, rho_hat = extrema
    for start in range(0, trials, _PROBE_CHUNK):
        count = min(_PROBE_CHUNK, trials - start)
        aligned = np.empty((count, m1, m2))
        comp = np.empty((count, m1, m2)) if with_complement else None
        ratios = np.empty(count)
        for j in range(count):
            rng.standard_normal(out=aligned[j])
            ratios[j] = rng.uniform(0.0, CONE_FACTOR)
            if with_complement:
                rng.standard_normal(out=comp[j])
        core = sub.U.T @ aligned @ sub.V
        aligned_part = sub.U @ core @ sub.V.T
        cols = aligned_part.reshape(count, -1).T
        a = np.vecdot(cols, hessian_product(design, cols), axis=0)
        p = np.vecdot(core.reshape(count, -1), core.reshape(count, -1))
        b = c = p_perp = s_lo = s_hi = np.zeros(count)
        if with_complement:
            comp_core = u_perp.T @ comp @ v_perp
            comp_cols = (u_perp @ comp_core @ v_perp.T).reshape(count, -1).T
            h_comp = hessian_product(design, comp_cols)
            b = np.vecdot(cols, h_comp, axis=0)
            c = np.vecdot(comp_cols, h_comp, axis=0)
            p_perp = np.vecdot(comp_core.reshape(count, -1), comp_core.reshape(count, -1))
            s_frob = np.zeros(count)
            np.divide(ratios * np.sqrt(p), np.sqrt(p_perp), out=s_frob, where=p_perp > 0)
            s_lo = s_frob / math.sqrt(min(m1, m2) - sub.r)
            s_hi = s_frob * math.sqrt(sub.r)
        lo, hi = _value_bounds(a, b, c, p, p_perp, s_lo, s_hi)
        low_bar = min(kappa_hat, float(hi.min()))
        high_bar = max(rho_hat, float(lo.max()))
        exact = np.flatnonzero(((lo <= low_bar) | (hi >= high_bar)) & (p > 0))
        if exact.size == 0:
            continue
        s = np.zeros(exact.size)
        if with_complement:
            aligned_nuc, comp_nuc = _nuclear_norms(core[exact]), _nuclear_norms(comp_core[exact])
            np.divide(ratios[exact] * aligned_nuc, comp_nuc, out=s, where=comp_nuc > 0)
        model = (x[exact] for x in (a, b, c, p, p_perp))
        values = np.maximum(_curvature_model(*model, s), 0.0)
        kappa_hat = min(kappa_hat, float(values.min()))
        rho_hat = max(rho_hat, float(values.max()))
    return CurvatureEstimate(kappa_hat=kappa_hat, rho_hat=rho_hat)


def tau_value(grad: np.ndarray, sub_s1: Subspace) -> float:
    """Spectral norm of ``grad``, the loss gradient at the truth
    (:func:`~lowrankpen.operators.loss_gradient` at Theta*), projected onto
    the subspace spanned by the large-singular-value frames."""
    if sub_s1.r == 0:
        return 0.0
    core = sub_s1.U.T @ grad @ sub_s1.V
    return float(np.linalg.norm(core, 2))


def weyl_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |gamma_i(A) - gamma_i(B)| - ||A - B||_2; nonpositive in theory.
    Raises ``ValueError`` for matrices of different shapes or holding a NaN or
    an infinity."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("matrices must have the same shape")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("matrices must be finite")
    ga = np.linalg.svd(a, compute_uv=False)
    gb = np.linalg.svd(b, compute_uv=False)
    diff = float(np.abs(ga - gb).max()) if ga.size else 0.0
    return diff - float(np.linalg.norm(a - b, 2))
