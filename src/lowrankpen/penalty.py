"""Scalar folded-concave penalties on singular values.

Three families are supported, all parameterized by a regularization level
``lambda`` and (for the nonconvex ones) a concavity parameter ``b``:

* ``nuclear`` -- p(t) = lambda*|t|, the plain l1 penalty on a singular value.
* ``scad``    -- a quadratic spline with knots at lambda and b*lambda that is
  linear near zero and exactly flat beyond b*lambda.
* ``mcp``     -- the minimax concave spline, flat beyond b*lambda.

Every family decomposes as p(t) = lambda*|t| + q(t) with a concave component
q.  The decomposition is taken literally: ``concave_part_value`` is defined by
subtraction, which guarantees the identity holds to machine precision.

Two derived scalars drive the theory diagnostics elsewhere in the package:

* ``nu``: the flatness threshold (p'(t) = 0 for t >= nu); b*lambda for
  SCAD/MCP, +inf for the nuclear norm.
* ``zeta_minus``: the concavity level of q (weak convexity constant);
  1/(b-1) for SCAD, 1/b for MCP, 0 for the nuclear norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NUCLEAR = "nuclear"
SCAD = "scad"
MCP = "mcp"

_FAMILIES = (NUCLEAR, SCAD, MCP)


def check_family(family: str, b: float) -> None:
    """Validate a penalty family and its concavity parameter ``b``.

    ``b`` must be finite for every family (an infinite b turns the SCAD
    middle branch into inf - inf); SCAD further requires b > 2 and MCP b > 1.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown penalty family {family!r}")
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got b={b}")
    if family == SCAD and not b > 2:
        raise ValueError(f"SCAD requires b > 2, got b={b}")
    if family == MCP and not b > 1:
        raise ValueError(f"MCP requires b > 1, got b={b}")


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family plus its parameters.

    Parameters
    ----------
    family : str
        One of ``"nuclear"``, ``"scad"``, ``"mcp"``.
    lam : float
        Regularization level, must be positive and finite.
    b : float
        Concavity parameter, finite for every family.  SCAD requires b > 2,
        MCP requires b > 1.  Ignored by the nuclear norm.
    """

    family: str
    lam: float
    b: float = 0.0

    def __post_init__(self) -> None:
        check_family(self.family, self.b)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be positive, got {self.lam}")

    @property
    def nu(self) -> float:
        """Flatness threshold: p'(t) = 0 for all t >= nu."""
        if self.family == NUCLEAR:
            return math.inf
        return self.b * self.lam

    @property
    def zeta_minus(self) -> float:
        """Concavity level of the concave component q."""
        if self.family == SCAD:
            return 1.0 / (self.b - 1.0)
        if self.family == MCP:
            return 1.0 / self.b
        return 0.0

    def convex_at(self, eta: float) -> bool:
        """Whether (x - z)^2 / 2 + eta * p(|x|) is strictly convex for a
        positive step: eta * zeta_minus < 1, read as eta < b - 1 for SCAD and
        eta < b for MCP so that no rounded product admits eta = b - 1 or b."""
        if self.family == SCAD:
            return eta < self.b - 1.0
        if self.family == MCP:
            return eta < self.b
        return True


def penalty_value(spec: PenaltySpec, t):
    """Evaluate p(|t|) for a scalar or array argument.

    SCAD branches: lambda*|t| on [0, lambda]; a downward quadratic on
    (lambda, b*lambda]; the constant (b+1)*lambda^2/2 beyond.  MCP:
    lambda*|t| - t^2/(2b) on [0, b*lambda]; b*lambda^2/2 beyond.  Both
    splines are continuous across their knots.
    """
    arr = np.asarray(t, dtype=float)
    a = np.abs(arr)
    lam, b = spec.lam, spec.b
    # each branch is evaluated on its own mask only, starting from the flat
    # value (where a NaN lands too); a huge |t| can overflow lam * |t| to inf
    with np.errstate(over="ignore"):
        if spec.family == NUCLEAR:
            out = lam * a
        elif spec.family == SCAD:
            out = np.full_like(a, (b + 1.0) * lam * lam / 2.0)
            low = a <= lam
            mid = ~low & (a <= b * lam)
            out[low] = lam * a[low]
            am = a[mid]
            out[mid] = -(am * am - 2.0 * b * lam * am + lam * lam) / (2.0 * (b - 1.0))
        else:
            out = np.full_like(a, b * lam * lam / 2.0)
            low = a <= b * lam
            al = a[low]
            out[low] = lam * al - al * al / (2.0 * b)
    if np.ndim(t) == 0:
        return float(out)
    return out


def penalty_derivative(spec: PenaltySpec, t):
    """Evaluate p'(t) for t > 0 (scalar or array).

    Equals lambda on the first branch, zero at and beyond the flatness
    threshold nu.  The subdifferential at zero is out of scope; any
    nonpositive argument raises.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("penalty_derivative requires strictly positive, finite t")
    lam, b = spec.lam, spec.b
    if spec.family == NUCLEAR:
        out = np.full_like(arr, lam)
    elif spec.family == SCAD:
        out = np.where(arr <= lam, lam, np.where(arr <= b * lam, (b * lam - arr) / (b - 1.0), 0.0))
    else:
        out = np.where(arr <= b * lam, lam - arr / b, 0.0)
    if np.ndim(t) == 0:
        return float(out)
    return out


def concave_part_value(spec: PenaltySpec, t):
    """q(t) = p(t) - lambda*|t|, defined by subtraction."""
    arr = np.asarray(t, dtype=float)
    out = penalty_value(spec, arr) - spec.lam * np.abs(arr)
    if np.ndim(t) == 0:
        return float(out)
    return out


def concave_part_derivative(spec: PenaltySpec, t):
    """q'(t) = p'(t) - lambda for t > 0."""
    arr = np.asarray(t, dtype=float)
    out = penalty_derivative(spec, arr) - spec.lam
    if np.ndim(t) == 0:
        return float(out)
    return out


def convex_prox(spec: PenaltySpec, s: np.ndarray, eta: float) -> np.ndarray:
    """Closed-form prox of a nonnegative array ``s`` for a finite positive
    ``eta`` at which :meth:`PenaltySpec.convex_at` holds (the solver checks).

    A thresholding rule (Fan & Li, JASA 2001): the soft threshold
    max(s - eta*lambda, 0) for the nuclear norm; for SCAD the soft threshold
    up to (1 + eta)*lambda, the stationary point of the quadratic branch
    ((b-1)s - eta*b*lambda) / (b-1-eta) up to b*lambda, and s beyond; for MCP
    firm thresholding, max(b(s - eta*lambda) / (b - eta), 0) up to b*lambda
    and s beyond.  The stationary point grows faster than s and the soft
    threshold and meets them at the knots, so each rule is a min of maxes
    with no branch test.  Each piece is the expression :func:`scalar_prox`
    evaluates for the same candidate, so the two agree bitwise away from the
    knots.  Values at or below eta*lambda map to exactly zero.
    """
    lam, b = spec.lam, spec.b
    shrunk = s - eta * lam
    if spec.family == NUCLEAR:
        return np.maximum(shrunk, 0.0)
    if spec.family == SCAD:
        middle = ((b - 1.0) * s - eta * b * lam) / ((b - 1.0) - eta)
        return np.minimum(np.maximum(np.maximum(shrunk, 0.0), middle), s)
    return np.minimum(np.maximum(b * shrunk / (b - eta), 0.0), s)


def scalar_prox(spec: PenaltySpec, z, eta: float):
    """Global minimizer of f(x) = (x - z)^2 / 2 + eta * p(|x|), per entry of z.

    A scalar z gives a float, an array gives an array of the same shape.
    The minimizer is found by enumerating every point that can be a local
    minimum: the spline knots {0, lambda, b*lambda}, the identity point |z|,
    and the stationary point of each quadratic branch, so it holds at any
    step, f convex or not; where :meth:`PenaltySpec.convex_at` holds the
    solver takes :func:`convex_prox` instead.  Each entry's candidates are
    sorted and the first minimum is taken, so exact ties go to the candidate
    with the smaller magnitude, which keeps the map odd and deterministic.
    """
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"z must be finite, got {z}")
    a = np.abs(arr).ravel()
    lam, b = spec.lam, spec.b

    columns = [np.zeros_like(a), a]
    if spec.family == NUCLEAR:
        columns.append(a - eta * lam)
    elif spec.family == SCAD:
        columns += [np.full_like(a, lam), np.full_like(a, b * lam), a - eta * lam]
        denom = (b - 1.0) - eta
        if denom != 0.0:
            columns.append(((b - 1.0) * a - eta * b * lam) / denom)
    else:
        columns.append(np.full_like(a, b * lam))
        if b != eta:
            columns.append(b * (a - eta * lam) / (b - eta))
    cand = np.stack(columns, axis=1)
    # candidates that are not positive and finite collapse onto x = 0
    cand = np.where(np.isfinite(cand) & (cand > 0), cand, 0.0)
    cand.sort(axis=1)
    d = cand - a[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        f = 0.5 * d * d + eta * penalty_value(spec, cand)
    f[np.isnan(f)] = np.inf  # an overflowed objective can never be the minimum
    best = cand[np.arange(a.size), np.argmin(f, axis=1)].reshape(arr.shape)
    out = np.where(arr >= 0, best, -best)
    if np.ndim(z) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one regularity condition: pass/fail plus the worst case."""

    passed: bool
    witness: float


@dataclass(frozen=True)
class RegularityReport:
    """Per-condition results of :func:`check_regularity`.

    ``curvature_bounded.witness`` is the empirical concavity level, the
    largest value of -(q'(t') - q'(t)) / (t' - t) observed on the grid; for a
    penalty meeting the conditions it reproduces ``zeta_minus``.
    """

    flat_beyond_nu: ConditionCheck
    curvature_bounded: ConditionCheck
    zero_at_origin: ConditionCheck
    derivative_within_lambda: ConditionCheck

    @property
    def all_passed(self) -> bool:
        return (
            self.flat_beyond_nu.passed
            and self.curvature_bounded.passed
            and self.zero_at_origin.passed
            and self.derivative_within_lambda.passed
        )


_REG_TOL = 1e-9


def check_regularity(spec: PenaltySpec, grid) -> RegularityReport:
    """Numerically verify the four penalty regularity conditions on a grid.

    (i)   p'(t) = 0 for every grid point t >= nu.  A penalty with nu = +inf
          (nuclear) fails: no finite flatness threshold exists, and the
          witness is p' at the largest grid point.
    (ii)  q'(t') - q'(t) >= -zeta_minus * (t' - t) - 1e-9 for all grid pairs
          t' >= t.
    (iii) q(0) = 0 and q'(0+) = 0 within 1e-9 (the one-sided derivative is
          probed at t = 1e-12).
    (iv)  |q'(t)| <= lambda + 1e-9 on the grid.

    Every condition takes one pass over the grid.  With g = q' + zeta_minus*t,
    (ii) says g_j - g_i >= -1e-9 for every pair i < j, so its worst pair is
    min_j (g_j - max_{i<j} g_i), a running maximum.  Its witness is the largest
    neighbour difference quotient -(q'_{j+1} - q'_j) / (t_{j+1} - t_j): the
    quotient of any pair is the mean of the neighbour quotients between its
    ends weighted by their lengths, so no pair exceeds the largest of them.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("grid must be a nonempty 1-D sequence")
    if np.any(pts <= 0) or np.any(np.diff(pts) <= 0):
        raise ValueError("grid must be strictly increasing and positive")

    lam = spec.lam
    qd = concave_part_derivative(spec, pts)

    # (i) flatness beyond nu, p' read as q' + lambda
    if math.isinf(spec.nu):
        flat = ConditionCheck(passed=False, witness=float(qd[-1] + lam))
    else:
        dv = np.abs(qd[pts >= spec.nu] + lam).max(initial=0.0)
        flat = ConditionCheck(passed=bool(dv <= _REG_TOL), witness=float(dv))

    # (ii) curvature of q' bounded below by -zeta_minus
    g = qd + spec.zeta_minus * pts
    worst = (g[1:] - np.maximum.accumulate(g[:-1])).min(initial=np.inf)
    slopes = -np.diff(qd) / np.diff(pts)
    curvature = ConditionCheck(
        passed=bool(worst >= -_REG_TOL), witness=float(slopes.max()) if slopes.size else 0.0
    )

    # (iii) q and q' vanish at the origin
    at_zero = max(abs(concave_part_value(spec, 0.0)), abs(concave_part_derivative(spec, 1e-12)))
    origin = ConditionCheck(passed=bool(at_zero <= _REG_TOL), witness=float(at_zero))

    # (iv) |q'| bounded by lambda
    absqd = float(np.abs(qd).max())
    bounded = ConditionCheck(passed=bool(absqd <= lam + _REG_TOL), witness=absqd)

    return RegularityReport(
        flat_beyond_nu=flat,
        curvature_bounded=curvature,
        zero_at_origin=origin,
        derivative_within_lambda=bounded,
    )
