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
threshold; the simulation lab and the CLI always use it.  Logarithms in the
rate formulas are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lowrankpen.operators import (
    Design,
    SensingDesign,
    Subspace,
    project_onto,
    quadratic_form,
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
    gamma_star, nu: float, r: int, adj_noise_spectral: float, n: int, kappa: float
) -> float:
    """Slack in the smallest-singular-value condition for exact rank recovery.

    Returns min over nonzero values of gamma* minus
    (nu + 2*sqrt(r)*||X*(eps)||_2 / (n*kappa)); positive means the
    rank-restricted estimator and the penalized one provably coincide.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    g = np.asarray(gamma_star, dtype=float)
    nonzero = g[g > 0]
    if nonzero.size == 0:
        raise ValueError("gamma_star has no nonzero entries")
    threshold = nu + 2.0 * math.sqrt(r) * adj_noise_spectral / (n * kappa)
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


def _feasible_blend(
    design: Design, sub: Subspace, direction: np.ndarray
) -> float | None:
    """Quadratic-form value of the direction pulled just inside the cone.

    Blends the direction D with its own aligned core C = P(D)/||P(D)||_F
    onto the cone boundary; returns None when no feasible blend exists (zero
    core).  Along the blend (1-t) D + t C the complement part scales by
    (1-t) and the aligned part by (1-t) + t/||P(D)||_F, so the ratio from
    :func:`cone_condition` reaches 5 at t = e/(e + 5) with
    e = (ratio - 5) ||P(D)||_F.  The blend keeps the complement part
    (1-t) P_perp(D), nonzero outside the cone, so its norm is positive.
    """
    core = project_onto(sub, direction)
    core_norm = float(np.linalg.norm(core))
    if core_norm == 0.0:
        return None
    ratio, in_cone = cone_condition(direction, sub)
    if in_cone:
        return quadratic_form(design, direction)
    excess = (ratio - CONE_FACTOR) * core_norm
    t = excess / (excess + CONE_FACTOR)
    cand = (1.0 - t) * direction + (t / core_norm) * core
    return quadratic_form(design, cand / float(np.linalg.norm(cand)))


_REFINE_SUBSPACE = 60


def _refined_extrema(design: SensingDesign, sub: Subspace) -> tuple[float, float] | None:
    """Cone-feasible near-extremal curvature values via the exact Hessian.

    Takes the cached eigendecomposition of the d x d Hessian X^T X / n of the
    quadratic form (d = m1*m2), then searches the bottom (and top)
    eigen-subspaces for cone-feasible directions: within the low-curvature
    span, the direction maximizing aligned-core mass is computed exactly and
    blended into the cone.  This reaches the near-zero curvature directions
    that random sampling cannot find when n is comparable to d.
    """
    d = design.m1 * design.m2
    eigvals, eigvecs = design.gram_eigh

    def block_value(block: slice) -> float | None:
        basis = eigvecs[:, block]
        # core-mass-optimal unit direction within the block's span
        mats3 = basis.T.reshape(-1, design.m1, design.m2)
        cores = project_onto(sub, mats3)
        gram = np.einsum("iab,jab->ij", cores, mats3)
        gram = 0.5 * (gram + gram.T)
        _, vv = np.linalg.eigh(gram)
        direction = np.einsum("i,iab->ab", vv[:, -1], mats3)
        return _feasible_blend(design, sub, direction / float(np.linalg.norm(direction)))

    k = min(_REFINE_SUBSPACE, d)
    null_dim = int(np.count_nonzero(eigvals <= 1e-12 * max(eigvals[-1], 0.0)))
    low_candidates = [block_value(slice(0, k))]
    if 0 < null_dim < k:
        low_candidates.append(block_value(slice(0, null_dim)))
    lows = [v for v in low_candidates if v is not None]
    high = block_value(slice(d - k, d))
    if not lows and high is None:
        return None
    return (
        min(lows) if lows else math.inf,
        high if high is not None else -math.inf,
    )


# directions stacked per chunk: large enough to amortize the per-call cost of
# the batched products, small enough that the chunk's arrays stay a few
# hundred kilobytes (stacking all directions at once grows the peak memory)
_PROBE_CHUNK = 25


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
    of ``_PROBE_CHUNK`` stacked directions at a time: the r x r cores
    C = U^T A V and the (m1 - r) x (m2 - r) cores C_perp = U_perp^T B V_perp
    are formed once, their nuclear norms taken by one batched
    singular-value call each (the same helper :func:`cone_condition`
    uses), each direction built as U C V^T + U_perp (scale C_perp) V_perp^T,
    and the quadratic form taken on the stack.  The result equals the
    one-direction-at-a-time loop to rounding.

    On a sensing design the sampled range is widened by cone-feasible
    directions built from the exact extreme eigen-subspaces of the quadratic
    form (:func:`_refined_extrema`), driving kappa_hat toward the cone
    infimum instead of the sampled minimum.  Plain sampling concentrates near
    the typical curvature and can overstate the infimum badly (for Gaussian
    sensing with n close to m1*m2 the infimum is essentially zero while the
    sampled minimum stays near one), which turns curvature-gap hypotheses
    vacuously true.  A completion design is sampled only: there the
    non-spiky random directions match the spikiness-restricted curvature
    that the completion theory relies on, so sampling is the faithful
    estimate.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m1, m2 = design.m1, design.m2
    with_complement = 0 < sub.r < min(m1, m2)
    u_perp, v_perp = sub.complement
    kappa_hat = math.inf
    rho_hat = -math.inf
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
        directions = sub.U @ core @ sub.V.T
        if with_complement:
            comp_core = u_perp.T @ comp @ v_perp
            aligned_nuc, comp_nuc = _nuclear_norms(core), _nuclear_norms(comp_core)
            scale = np.zeros(count)
            np.divide(ratios * aligned_nuc, comp_nuc, out=scale, where=comp_nuc > 0)
            directions += u_perp @ (comp_core * scale[:, None, None]) @ v_perp.T
        flat = directions.reshape(count, -1)
        norms = np.sqrt(np.vecdot(flat, flat))
        keep = np.flatnonzero(norms > 0.0)
        if keep.size == 0:
            continue
        values = quadratic_form(design, directions[keep] / norms[keep, None, None])
        kappa_hat = min(kappa_hat, float(values.min()))
        rho_hat = max(rho_hat, float(values.max()))
    if isinstance(design, SensingDesign):
        extrema = _refined_extrema(design, sub)
        if extrema is not None:
            kappa_hat = min(kappa_hat, extrema[0])
            rho_hat = max(rho_hat, extrema[1])
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
