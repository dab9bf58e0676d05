"""Observation designs, the linear sampling operator, loss, and projections.

Two designs realize the observation model y_i = <X_i, Theta> + eps_i:

* :class:`CompletionDesign` -- each X_i is a one-hot indicator e_j e_k^T, so
  the forward map reads matrix entries (sampled uniformly with replacement).
* :class:`SensingDesign` -- dense Gaussian measurement matrices; either i.i.d.
  standard normal entries or a correlated ensemble given by a Cholesky factor
  applied to vec(X_i) (row-major vectorization).

Designs and observation sets are immutable after construction; their arrays
are marked read-only so they can be shared across concurrent workers.

The loss is quadratic, so each design also carries the Hessian of
Theta -> ||X(Theta)||^2 / (2n) and each observation set the linear term
X*(y)/n.  Both are built once, on first use: the d x d Gram matrix
H = X^T X / n over row-major vec(X_i) for sensing (d = m1*m2), and the
per-cell observation count / n -- the diagonal of H -- for completion.  The
loss, its gradient, the curvature diagnostics of :mod:`lowrankpen.theory` and
the solver (see :mod:`lowrankpen.solver`) read these statistics instead of
sweeping the n observations.  :func:`apply_forward` and :func:`apply_adjoint`
are the direct maps; X*(y)/n is :func:`apply_adjoint` of y, divided by n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

IDENTITY = "identity"
CHOLESKY = "cholesky"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CompletionDesign:
    """Uniformly sampled entry observations of an m1 x m2 matrix.

    ``entries`` holds n index pairs (j, k), 0-based, possibly with
    duplicates (sampling is with replacement).
    """

    m1: int
    m2: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("matrix dimensions must be positive")
        ent = np.asarray(self.entries, dtype=np.int64)
        if ent.ndim != 2 or ent.shape[1] != 2 or ent.shape[0] < 1:
            raise ValueError("entries must be a nonempty (n, 2) index array")
        if ent[:, 0].min() < 0 or ent[:, 0].max() >= self.m1:
            raise ValueError("row index out of range")
        if ent[:, 1].min() < 0 or ent[:, 1].max() >= self.m2:
            raise ValueError("column index out of range")
        object.__setattr__(self, "entries", _freeze(ent))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def weights(self) -> np.ndarray:
        """Per-cell observation count / n, an m1 x m2 matrix (the diagonal Hessian)."""
        counts = np.bincount(_cell_index(self), minlength=self.m1 * self.m2)
        return _freeze((counts / self.n).reshape(self.m1, self.m2))


@dataclass(frozen=True)
class SensingDesign:
    """Dense random measurement matrices X_1, ..., X_n."""

    m1: int
    m2: int
    matrices: np.ndarray

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("matrix dimensions must be positive")
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1:] != (self.m1, self.m2) or mats.shape[0] < 1:
            raise ValueError("matrices must have shape (n, m1, m2) with n >= 1")
        object.__setattr__(self, "matrices", _freeze(mats))

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        """H = X^T X / n, the d x d Hessian over row-major vec(Theta)."""
        mats = self.matrices.reshape(self.n, self.m1 * self.m2)
        return _freeze((mats.T @ mats) / self.n)

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of :attr:`gram` in ascending order and their eigenvectors."""
        eigvals, eigvecs = np.linalg.eigh(self.gram)
        return _freeze(eigvals), _freeze(eigvecs)


Design = CompletionDesign | SensingDesign


@dataclass(frozen=True)
class ObservationSet:
    """A design together with its responses y."""

    design: Design
    y: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.shape[0] != self.design.n:
            raise ValueError("y must be a vector of length design.n")
        object.__setattr__(self, "y", _freeze(y))

    @property
    def n(self) -> int:
        return self.design.n

    @cached_property
    def xty(self) -> np.ndarray:
        """X*(y) / n as an m1 x m2 matrix (:func:`apply_adjoint`)."""
        return _freeze(apply_adjoint(self.design, self.y) / self.n)

    @cached_property
    def loss_at_zero(self) -> float:
        """||y||^2 / (2n), the constant term of the quadratic loss."""
        return float(self.y @ self.y) / (2.0 * self.n)


@dataclass(frozen=True)
class Subspace:
    """Orthonormal left/right frames spanning a rank-r matrix subspace."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        U = np.asarray(self.U, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
            raise ValueError("U and V must be 2-D with the same number of columns")
        r = U.shape[1]
        for name, F in (("U", U), ("V", V)):
            gram = F.T @ F
            if r and np.abs(gram - np.eye(r)).max() > 1e-10:
                raise ValueError(f"{name} columns are not orthonormal within 1e-10")
        object.__setattr__(self, "U", _freeze(U))
        object.__setattr__(self, "V", _freeze(V))

    @property
    def r(self) -> int:
        return self.U.shape[1]

    @cached_property
    def complement(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal frames (U_perp, V_perp) of the complements of span(U), span(V)."""
        u_perp = np.linalg.qr(self.U, mode="complete")[0][:, self.r :]
        v_perp = np.linalg.qr(self.V, mode="complete")[0][:, self.r :]
        return _freeze(u_perp), _freeze(v_perp)

    def subframe(self, indices) -> "Subspace":
        """Restriction to a subset of frame columns (e.g. the large-value block)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Subspace(self.U[:, idx], self.V[:, idx])


def _cell_index(design: CompletionDesign) -> np.ndarray:
    """Row-major cell number j*m2 + k of every observation."""
    return design.entries[:, 0] * design.m2 + design.entries[:, 1]


def _check_theta(design: Design, theta: np.ndarray, stack: bool = False) -> np.ndarray:
    """``theta`` as a float m1 x m2 matrix, or a (..., m1, m2) stack when allowed."""
    theta = np.asarray(theta, dtype=float)
    shape = theta.shape[-2:] if stack else theta.shape
    if shape != (design.m1, design.m2):
        raise ValueError(
            f"expected a {design.m1} x {design.m2} matrix, got shape {theta.shape}"
        )
    return theta


def apply_forward(design: Design, theta: np.ndarray) -> np.ndarray:
    """Forward map: component i equals <X_i, Theta>."""
    theta = _check_theta(design, theta)
    if isinstance(design, CompletionDesign):
        return theta[design.entries[:, 0], design.entries[:, 1]].copy()
    return np.einsum("ijk,jk->i", design.matrices, theta)


def apply_adjoint(design: Design, v: np.ndarray) -> np.ndarray:
    """Adjoint map: sum_i v_i X_i (per-cell sums of v for completion)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (design.n,):
        raise ValueError(f"expected a length-{design.n} vector, got shape {v.shape}")
    if isinstance(design, CompletionDesign):
        sums = np.bincount(_cell_index(design), weights=v, minlength=design.m1 * design.m2)
        return sums.reshape(design.m1, design.m2)
    return (v @ design.matrices.reshape(design.n, -1)).reshape(design.m1, design.m2)


def hessian_product(design: Design, cols: np.ndarray) -> np.ndarray:
    """H @ cols, where the columns of the (m1*m2, k) array are row-major vec(Theta)."""
    if isinstance(design, CompletionDesign):
        return design.weights.reshape(-1, 1) * cols
    return design.gram @ cols


def _row_outer(frame: np.ndarray) -> np.ndarray:
    """Row-wise outer products of an m x r frame, one flattened r x r product per row."""
    r = frame.shape[1]
    return (frame[:, :, None] * frame[:, None, :]).reshape(-1, r * r)


def row_grams(weights: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """F^T diag(w_j) F for each row w_j of ``weights`` (p x m) and the m x r
    ``frame`` F, as a p x r x r stack, in one product with the row-wise outer
    products of F.

    With the completion weights and a right frame V these are the blocks of
    the diagonal Hessian seen through V, row by row: the normal matrices of
    the per-row least-squares problems over U C V^T or A V^T
    (:func:`subspace_hessian`, the solver's alternating least squares); the
    transposed weights and a left frame give the per-column ones.
    """
    r = frame.shape[1]
    return (weights @ _row_outer(frame)).reshape(-1, r, r)


def subspace_hessian(design: Design, sub: Subspace) -> np.ndarray:
    """K^T H K for K = U kron V, the Hessian of the loss over the r x r
    coefficients C of U C V^T, indexed like row-major vec(C).

    Completion never forms the (m1*m2) x r^2 matrix K: H is diagonal, so
    K^T H K = sum_j (u_j u_j^T) kron (V^T diag(w_j) V), u_j the j-th row of U
    and w_j that of the weights (:func:`row_grams`), which takes
    O(m1 m2 r^2 + m1 r^4) work.
    """
    r = sub.r
    if isinstance(design, CompletionDesign):
        inner = row_grams(design.weights, sub.V).reshape(-1, r * r)
        # rows (a, c), columns (b, d)
        blocks = _row_outer(sub.U).T @ inner
        return blocks.reshape(r, r, r, r).transpose(0, 2, 1, 3).reshape(r * r, r * r)
    k = np.kron(sub.U, sub.V)  # column a*r + b is vec(u_a v_b^T)
    return k.T @ (design.gram @ k)


def apply_hessian(design: Design, theta: np.ndarray) -> np.ndarray:
    """H Theta = X*(X(Theta)) / n as an m1 x m2 matrix."""
    col = _check_theta(design, theta).reshape(-1, 1)
    return hessian_product(design, col).reshape(design.m1, design.m2)


def quadratic_form(design: Design, delta: np.ndarray) -> float | np.ndarray:
    """Curvature ||X(Delta)||^2 / n, evaluated as vec(Delta)^T H vec(Delta).

    ``delta`` is one m1 x m2 matrix (a float is returned) or a (..., m1, m2)
    stack (an array of the leading shape is returned).  A stack is evaluated
    in one product with its vec(Delta) as the columns; each value equals the
    one-matrix call to rounding.  The form is nonnegative; rounding can take
    the sensing value a few ulps below zero along null directions of H, so it
    is clipped at zero.
    """
    delta = _check_theta(design, delta, stack=True)
    cols = delta.reshape(-1, design.m1 * design.m2).T
    values = np.maximum(np.vecdot(cols, hessian_product(design, cols), axis=0), 0.0)
    if delta.ndim == 2:
        return float(values[0])
    return values.reshape(delta.shape[:-2])


def loss_value(
    obs: ObservationSet, theta: np.ndarray, h_theta: np.ndarray | None = None
) -> float:
    """Quadratic empirical loss ||y - X(Theta)||^2 / (2n).

    Sensing expands the square into Theta^T H Theta / 2 - <Theta, X*(y)/n> +
    ||y||^2 / (2n), reading H Theta from ``h_theta`` when the caller already
    holds it (:func:`apply_hessian`); completion keeps the O(n) residual sum,
    which is exactly zero at an exact fit, and ignores ``h_theta``.
    """
    if isinstance(obs.design, CompletionDesign):
        resid = obs.y - apply_forward(obs.design, theta)
        return float(resid @ resid) / (2.0 * obs.n)
    if h_theta is None:
        h_theta = apply_hessian(obs.design, theta)
    return float(np.vdot(theta, 0.5 * h_theta - obs.xty)) + obs.loss_at_zero


def loss_gradient(obs: ObservationSet, theta: np.ndarray) -> np.ndarray:
    """Gradient of the quadratic loss: X*(X(Theta) - y) / n = H Theta - X*(y)/n."""
    return apply_hessian(obs.design, theta) - obs.xty


def _check_frames(sub: Subspace, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (sub.U.shape[0], sub.V.shape[0]):
        raise ValueError("matrix shape does not match the subspace frames")
    return a


def project_onto(sub: Subspace, a: np.ndarray) -> np.ndarray:
    """Projection U U^T A V V^T onto the subspace spanned by the frames.

    ``a`` may be one matrix or a (..., m1, m2) stack, projected slice by slice.
    """
    a = _check_frames(sub, a)
    return sub.U @ (sub.U.T @ a @ sub.V) @ sub.V.T


def project_complement(sub: Subspace, a: np.ndarray) -> np.ndarray:
    """Projection (I - U U^T) A (I - V V^T) onto the orthogonal complement.

    ``a`` may be one matrix or a (..., m1, m2) stack, projected slice by slice.
    """
    a = _check_frames(sub, a)
    ua = sub.U.T @ a
    av = a @ sub.V
    return a - sub.U @ ua - av @ sub.V.T + sub.U @ (ua @ sub.V) @ sub.V.T


def sample_completion_design(
    rng: np.random.Generator, m1: int, m2: int, n: int
) -> CompletionDesign:
    """Draw n i.i.d. uniform index pairs with replacement."""
    if n < 1:
        raise ValueError("n must be at least 1")
    jj = rng.integers(0, m1, size=n)
    kk = rng.integers(0, m2, size=n)
    return CompletionDesign(m1=m1, m2=m2, entries=np.column_stack([jj, kk]))


def sample_sensing_design(
    rng: np.random.Generator,
    m1: int,
    m2: int,
    n: int,
    ensemble: str = IDENTITY,
    cholesky: np.ndarray | None = None,
) -> SensingDesign:
    """Draw n dense Gaussian measurement matrices.

    With ``ensemble="identity"`` the entries are i.i.d. N(0, 1).  With
    ``ensemble="cholesky"`` each vec(X_i) (row-major) equals L g for the
    supplied lower-triangular factor L with positive diagonal.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = m1 * m2
    if ensemble == IDENTITY:
        mats = rng.standard_normal((n, m1, m2))
        return SensingDesign(m1=m1, m2=m2, matrices=mats)
    if ensemble != CHOLESKY:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    L = np.asarray(cholesky, dtype=float)
    if L.shape != (d, d):
        raise ValueError(f"Cholesky factor must be {d} x {d}, got {L.shape}")
    if np.any(np.triu(L, 1) != 0):
        raise ValueError("Cholesky factor must be lower triangular")
    if np.any(np.diag(L) <= 0):
        raise ValueError("Cholesky factor must have a positive diagonal")
    g = rng.standard_normal((n, d))
    mats = (g @ L.T).reshape(n, m1, m2)
    return SensingDesign(m1=m1, m2=m2, matrices=mats)


def generate_observations(
    design: Design, theta_star: np.ndarray, sigma: float, rng: np.random.Generator
) -> ObservationSet:
    """Form y = X(Theta*) + eps with eps ~ N(0, sigma^2 I), sigma finite and
    nonnegative."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    y = apply_forward(design, theta_star)
    if sigma > 0:
        y = y + sigma * rng.standard_normal(design.n)
    return ObservationSet(design=design, y=y)

