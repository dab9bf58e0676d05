"""Monte Carlo simulation lab: ground truth, trials, grids, and holdout RMSE.

A :class:`TrialSpec` describes a full experiment: observation model, matrix
shape and rank, ground-truth spectrum rule, noise level, a grid of sample
sizes, penalty templates (the regularization level is resolved per sample
size from the theory rules), repeat count, and a base seed.

Reproducibility contract: every trial draws from its own substream of a
PCG64 generator.  The substream seed is the first 64-bit state word of
``numpy.random.SeedSequence([base_seed, n, penalty_index, repeat_index])``
and is recorded in the output, so any row of a result table can be
regenerated from its seed column alone.  Trials are independent and can run
in parallel; aggregation folds over trial index order, so results do not
depend on scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from lowrankpen import fileio, theory
from lowrankpen.operators import (
    Subspace,
    generate_observations,
    loss_gradient,
    sample_completion_design,
    sample_sensing_design,
)
from lowrankpen.penalty import NUCLEAR, PenaltySpec, check_family
from lowrankpen.solver import (
    DivergenceError, RankDeficiencyError, SolverConfig, fit, solve_oracle,
)

COMPLETION = "completion"
SENSING = "sensing"

RNG_DESCRIPTION = (
    "numpy PCG64; per-trial substream seed = first uint64 state of "
    "SeedSequence([base_seed, n, penalty_index, repeat_index])"
)

ORACLE_MATCH_RTOL = 1e-3
SIGMA_FLOOR = 0.01
PROBE_DIRECTIONS = 200  # curvature-probe directions per trial


@dataclass(frozen=True)
class AllAboveNu:
    """All true singular values drawn uniformly in [nu*(1+margin), 2*nu*(1+margin)]."""

    kind: ClassVar[str] = "all_above_nu"
    margin: float = 0.2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError(f"margin must be finite and nonnegative, got {self.margin!r}")


@dataclass(frozen=True)
class MixedSpectrum:
    """r1 values above nu (uniform in [1.2*nu, 2.4*nu]) plus r2 copies of low_value."""

    kind: ClassVar[str] = "mixed"
    r1: int
    r2: int
    low_value: float

    def __post_init__(self) -> None:
        for name in ("r1", "r2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not (math.isfinite(self.low_value) and self.low_value > 0):
            raise ValueError(f"low_value must be finite and positive, got {self.low_value!r}")


SpectrumRule = AllAboveNu | MixedSpectrum


@dataclass(frozen=True)
class PenaltyTemplate:
    """Penalty family and concavity parameter; lambda is resolved per trial.

    ``b`` must be positive for every family.  For the nuclear norm it is not
    a penalty parameter, but spectrum rules still use b*lambda as the scale
    reference so convex and nonconvex cells of a grid draw comparable ground
    truths.
    """

    family: str
    b: float

    def __post_init__(self) -> None:
        check_family(self.family, self.b)
        if not self.b > 0:
            raise ValueError(
                f"b must be positive (it sets the truth scale b*lambda), got b={self.b}"
            )


def _check_low_value(rule: MixedSpectrum, nu: float) -> None:
    if not rule.low_value < nu:
        raise ValueError(
            f"spectrum_rule is mixed and needs low_value below nu = b*lambda, "
            f"got low_value = {rule.low_value!r} and nu = {nu!r}"
        )


@dataclass(frozen=True)
class TrialSpec:
    """Complete description of a simulation grid.  A ``ValueError`` whose
    message opens with a field's name rejects that field.  The model and
    sigma are checked by :func:`standard_lambda`, called at every n so that a
    grid fails before any trial runs; b by :class:`PenaltyTemplate`."""

    model: str
    m1: int
    m2: int
    r: int
    spectrum_rule: SpectrumRule
    sigma: float
    n_grid: tuple[int, ...]
    penalties: tuple[PenaltyTemplate, ...]
    repeats: int
    base_seed: int
    solver: SolverConfig = field(default_factory=SolverConfig)
    lambda_rule: str = "standard"

    def __post_init__(self) -> None:
        if self.r < 1 or self.r > min(self.m1, self.m2):
            raise ValueError("r must satisfy 1 <= r <= min(m1, m2)")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must hold positive sample sizes")
        if not self.penalties:
            raise ValueError("penalties must hold at least one template")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        lams = [standard_lambda(self.model, self.sigma, self.m1, self.m2, n) for n in self.n_grid]
        if self.lambda_rule not in ("standard", "oracle"):
            raise ValueError(
                f"lambda_rule must be 'standard' or 'oracle', got {self.lambda_rule!r}"
            )
        if isinstance(self.spectrum_rule, MixedSpectrum):
            if self.spectrum_rule.r1 + self.spectrum_rule.r2 != self.r:
                raise ValueError("spectrum_rule is mixed and needs r1 + r2 == r")
        if isinstance(self.spectrum_rule, MixedSpectrum) and self.lambda_rule == "standard":
            # the oracle rule's lambda needs the trial's probe: checked in the trial
            for lam in lams:
                for tpl in self.penalties:
                    _check_low_value(self.spectrum_rule, tpl.b * lam)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "penalties", tuple(self.penalties))


# Result-table columns, in file order.
CSV_COLUMNS = (
    "model,m1,m2,r,n,N,penalty,lambda,b,repeat,seed,mse,frob_err,rank_hat,"
    "rank_correct,oracle_match,bound_total,bound_holds,converged,"
    "fixed_point_residual,runtime_seconds"
).split(",")


@dataclass(frozen=True, kw_only=True)
class TrialOutcome:
    """One trial's results.  The leading fields mirror the CSV schema, with the
    fit's fields defaulting to what a diverged fit records; the trailing
    diagnostics support bound audits without re-running the fit.

    ``oracle_gap`` is the slack of the oracle-property condition at the
    probed curvature, set (as ``bound_total`` is) when that curvature clears
    the concavity level, and -inf for the nuclear norm, whose nu is infinite.
    When it is positive the theorem says the fit equals the rank-restricted
    oracle, which ``oracle_match`` checks.
    """

    model: str
    m1: int
    m2: int
    r: int
    n: int
    N: float
    penalty: str
    lam: float
    b: float
    repeat: int
    seed: int
    mse: float = math.inf
    frob_err: float = math.inf
    rank_hat: int = -1
    rank_correct: bool = False
    oracle_match: bool | None = None
    bound_total: float | None = None
    bound_holds: bool | None = None
    converged: bool = False
    fixed_point_residual: float = math.inf
    runtime_seconds: float
    # diagnostics beyond the CSV schema
    in_cone: bool = False
    r1: int = 0
    r2: int = 0
    theta_star_frob: float = 0.0
    tol: float = 0.0
    oracle_gap: float | None = None


@dataclass(frozen=True)
class GridResult:
    trials: tuple[TrialOutcome, ...]
    aggregate: tuple[dict, ...]


def _check_model(model: str, m: int) -> None:
    """Reject an unknown model, and m = max(m1, m2) = 1 for completion: its
    lambda rule and its sample-size unit both scale with log m, which is 0
    there."""
    if model not in (COMPLETION, SENSING):
        raise ValueError(f"model must be {COMPLETION!r} or {SENSING!r}, got {model!r}")
    if model == COMPLETION and m < 2:
        raise ValueError(
            "m1 and m2 are both 1; completion needs max(m1, m2) >= 2, since its "
            "lambda rule and sample-size unit scale with log max(m1, m2)"
        )


def _sample_size_unit(model: str, r: int, m: int) -> float:
    """The sample size that :func:`rescale_n` maps to 1."""
    _check_model(model, m)
    return r * m * math.log(m) if model == COMPLETION else r * m


def rescale_n(model: str, n: int, r: int, m: int) -> float:
    """Rescaled sample size: n/(r*m*log m) for completion (m >= 2), n/(r*m) for sensing."""
    if n < 1 or r < 1 or m < 1:
        raise ValueError("arguments must be positive")
    return n / _sample_size_unit(model, r, m)


def raw_sample_size(model: str, rescaled: float, r: int, m: int) -> int:
    """Inverse of :func:`rescale_n`, rounded to the nearest integer."""
    return int(round(rescaled * _sample_size_unit(model, r, m)))


def trial_seed(base_seed: int, n: int, penalty_index: int, repeat_index: int) -> int:
    """Derived substream seed; see the module docstring for the rule."""
    ss = np.random.SeedSequence(
        [int(base_seed) & 0xFFFFFFFFFFFFFFFF, int(n), int(penalty_index), int(repeat_index)]
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _sample_frames(rng: np.random.Generator, m1: int, m2: int, r: int):
    """Left/right singular frames of a random Gaussian matrix, first r columns."""
    g = rng.standard_normal((m1, m2))
    u, _, vt = np.linalg.svd(g, full_matrices=False)
    return u[:, :r], vt[:r, :].T


def standard_lambda(
    model: str, sigma: float, m1: int, m2: int, n: int, c: float = theory.DEFAULT_RULE_CONSTANT
) -> float:
    """The standard regularization level of ``model`` at n observations: the
    theory rule with rule constant c and isotropic design (pi(Sigma) = 1), at
    noise level sigma, or :data:`SIGMA_FLOOR` when sigma is zero.  Rejects
    a sigma that is not finite and nonnegative or whose lambda is not finite
    and positive, by a message that opens with ``sigma``."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    _check_model(model, max(m1, m2))
    rule = theory.lambda_completion if model == COMPLETION else theory.lambda_sensing
    lam = rule(sigma if sigma > 0 else SIGMA_FLOOR, m1, m2, n, c)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(
            f"sigma must give a finite positive lambda, got lambda = {lam!r} "
            f"at sigma = {sigma!r} and n = {n}"
        )
    return lam


def _resolve_lambda(spec: TrialSpec, n: int, probe: theory.CurvatureEstimate) -> float:
    if spec.lambda_rule == "oracle":
        if not probe.kappa_hat > 0:
            raise ValueError(
                "lambda_rule 'oracle' needs a positive curvature estimate, "
                f"got kappa_hat = {probe.kappa_hat!r} at n = {n}"
            )
        # at c = 1 the standard rule is the oracle rule's noise term
        noise = standard_lambda(spec.model, spec.sigma, spec.m1, spec.m2, n, 1.0)
        return theory.lambda_oracle_rule(noise, spec.r, probe.rho_hat, probe.kappa_hat)
    return standard_lambda(spec.model, spec.sigma, spec.m1, spec.m2, n)


def _resolve_spectrum(
    spec: TrialSpec, rng: np.random.Generator, nu_ref: float
) -> np.ndarray:
    rule = spec.spectrum_rule
    # the large values are uniform in [lo, 2 lo]
    lo = nu_ref * (1.0 + rule.margin) if isinstance(rule, AllAboveNu) else 1.2 * nu_ref
    if not math.isfinite(2.0 * lo):
        raise ValueError(f"truth singular values from {lo} up overflow; lower sigma, b or margin")
    if isinstance(rule, AllAboveNu):
        return rng.uniform(lo, 2.0 * lo, size=spec.r)
    _check_low_value(rule, nu_ref)
    high = rng.uniform(lo, 2.0 * lo, size=rule.r1)
    low = np.full(rule.r2, rule.low_value)
    return np.concatenate([high, low])


def run_trial(spec: TrialSpec, n: int, penalty_index: int, repeat_index: int) -> TrialOutcome:
    """Execute one simulation trial.

    Deterministic given (spec, n, penalty_index, repeat_index).  Draw order
    within the substream: singular frames, design, curvature probe, truth
    spectrum, observation noise.  The frames come first because the
    regularization level (and with it the truth scale b*lambda) can depend
    on the probed curvature, while the probe itself only needs the frames.
    The probe's own draws follow the order documented in
    :func:`lowrankpen.theory.probe_rsc`, which the later draws depend on.
    """
    t_start = time.perf_counter()
    template = spec.penalties[penalty_index]
    seed = trial_seed(spec.base_seed, n, penalty_index, repeat_index)
    rng = np.random.default_rng(seed)

    u, v = _sample_frames(rng, spec.m1, spec.m2, spec.r)
    sub = Subspace(u, v)
    if spec.model == COMPLETION:
        design = sample_completion_design(rng, spec.m1, spec.m2, n)
    else:
        design = sample_sensing_design(rng, spec.m1, spec.m2, n)
    probe = theory.probe_rsc(design, sub, PROBE_DIRECTIONS, rng)

    lam = _resolve_lambda(spec, n, probe)
    penalty = PenaltySpec(template.family, lam, template.b)
    nu_ref = template.b * lam
    gamma = np.sort(_resolve_spectrum(spec, rng, nu_ref))[::-1]
    theta_star = (u * gamma) @ v.T
    obs = generate_observations(design, theta_star, spec.sigma, rng)

    common = dict(
        model=spec.model,
        m1=spec.m1,
        m2=spec.m2,
        r=spec.r,
        n=n,
        N=rescale_n(spec.model, n, spec.r, max(spec.m1, spec.m2)),
        penalty=template.family,
        lam=lam,
        b=template.b,
        repeat=repeat_index,
        seed=seed,
        theta_star_frob=float(np.linalg.norm(theta_star)),
        tol=spec.solver.tol,
    )

    try:
        result = fit(obs, penalty, spec.solver)
    except DivergenceError:
        return TrialOutcome(runtime_seconds=time.perf_counter() - t_start, **common)

    delta = result.theta_hat - theta_star
    frob_err = float(np.linalg.norm(delta))
    mse = frob_err**2 / (spec.m1 * spec.m2)
    rank_correct = result.rank_hat == spec.r

    split = theory.split_spectrum(gamma, penalty.nu)
    grad_star = loss_gradient(obs, theta_star)
    tau = theory.tau_value(grad_star, sub.subframe(split.s1))
    _, in_cone = theory.cone_condition(delta, sub)

    bound_total = None
    bound_holds = None
    oracle_gap = None
    if probe.kappa_hat > penalty.zeta_minus:
        report = theory.error_bound_general(
            tau, lam, probe.kappa_hat, penalty.zeta_minus, split.r1, split.r2
        )
        bound_total = report.total
        bound_holds = bool(frob_err <= report.total)
        # ||X*(eps)||_2 / n = ||grad L(Theta*)||_2
        oracle_gap = theory.oracle_condition_gap(
            gamma, penalty.nu, spec.r, float(np.linalg.norm(grad_star, 2)), probe.kappa_hat
        )

    oracle_match = None
    if template.family != NUCLEAR and isinstance(spec.spectrum_rule, AllAboveNu):
        try:
            theta_oracle = solve_oracle(obs, sub)
        except RankDeficiencyError:
            pass  # the realized design does not identify the oracle estimator
        else:
            rel = float(
                np.linalg.norm(result.theta_hat - theta_oracle)
                / max(np.linalg.norm(theta_oracle), 1e-300)
            )
            oracle_match = bool(rel <= ORACLE_MATCH_RTOL)

    return TrialOutcome(
        mse=mse,
        frob_err=frob_err,
        rank_hat=result.rank_hat,
        rank_correct=rank_correct,
        oracle_match=oracle_match,
        bound_total=bound_total,
        bound_holds=bound_holds,
        converged=result.converged,
        fixed_point_residual=result.fixed_point_residual,
        runtime_seconds=time.perf_counter() - t_start,
        in_cone=in_cone,
        r1=split.r1,
        r2=split.r2,
        oracle_gap=oracle_gap,
        **common,
    )


def run_grid(spec: TrialSpec, jobs: int = 1) -> GridResult:
    """Run the full cartesian grid n_grid x penalties x repeats.

    Trials execute independently (in min(jobs, trials) worker processes
    when that is above 1); the result order and every aggregate are a
    deterministic function of the spec alone.
    """
    tasks = [
        (spec, n, p_idx, rep)
        for n in spec.n_grid
        for p_idx in range(len(spec.penalties))
        for rep in range(spec.repeats)
    ]
    columns = tuple(zip(*tasks))
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: the pool module loads multiprocessing, which a
        # serial run and every other command can skip
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = tuple(pool.map(run_trial, *columns, chunksize=1))
    else:
        trials = tuple(map(run_trial, *columns))

    aggregate = []
    for offset in range(0, len(trials), spec.repeats):
        cell = trials[offset : offset + spec.repeats]
        aggregate.append(
            {
                "n": cell[0].n,
                "N": cell[0].N,
                "penalty": cell[0].penalty,
                "mean_mse": float(np.mean([t.mse for t in cell])),
                "mean_frob_err": float(np.mean([t.frob_err for t in cell])),
                "rank_correct_rate": float(np.mean([t.rank_correct for t in cell])),
            }
        )
    return GridResult(trials=trials, aggregate=tuple(aggregate))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trials_csv(path, trials) -> None:
    """Write the per-trial result table with the documented column set."""
    attr_for = {"lambda": "lam"}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for t in trials:
            row = [_csv_cell(getattr(t, attr_for.get(col, col))) for col in CSV_COLUMNS]
            fh.write(",".join(row) + "\n")


def write_meta_json(path, spec: TrialSpec, elapsed_seconds: float | None = None) -> None:
    """Sidecar metadata: spec echo, library version, RNG identifier.

    The ``run`` block (timestamp, wall time) is execution metadata and is
    the only part allowed to differ between identical runs.
    """
    from lowrankpen import __version__

    doc = asdict(spec)
    doc["spectrum_rule"]["kind"] = spec.spectrum_rule.kind
    meta = {
        "spec": doc,
        "library_version": __version__,
        "rng": RNG_DESCRIPTION,
        "run": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "elapsed_seconds": elapsed_seconds,
        },
    }
    fileio.write_json(path, meta)


def holdout_split(
    triplets: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split triplets into observed and held-out parts, uniformly without
    replacement; ``fraction`` is the observed share."""
    triplets = np.asarray(triplets, dtype=float)
    if triplets.ndim != 2 or triplets.shape[1] != 3 or triplets.shape[0] == 0:
        raise ValueError("triplets must be a nonempty (n, 3) array")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    total = triplets.shape[0]
    n_train = int(round(fraction * total))
    if n_train == 0 or n_train == total:
        raise ValueError("split leaves an empty side; adjust fraction or data size")
    perm = rng.permutation(total)
    return triplets[perm[:n_train]], triplets[perm[n_train:]]


def rmse(predicted: np.ndarray, test_triplets: np.ndarray) -> float:
    """Root mean squared error of matrix predictions on held-out triplets."""
    test = np.asarray(test_triplets, dtype=float)
    if test.ndim != 2 or test.shape[1] != 3 or test.shape[0] == 0:
        raise ValueError("test triplets must be a nonempty (n, 3) array")
    predicted = np.asarray(predicted, dtype=float)
    jj = test[:, 0].astype(np.int64)
    kk = test[:, 1].astype(np.int64)
    diff = predicted[jj, kk] - test[:, 2]
    return float(np.sqrt(np.mean(diff * diff)))
