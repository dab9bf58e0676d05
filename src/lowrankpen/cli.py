"""Command-line front end: simulate grids, fit from files, evaluate holdout RMSE.

Exit codes are a stable contract: 0 ok, 1 internal error, 2 invalid input
(config or data file), 3 I/O failure, 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from lowrankpen import __version__, fileio, simlab, theory
from lowrankpen.fileio import InputFormatError
from lowrankpen.operators import CompletionDesign, ObservationSet
from lowrankpen.penalty import MCP, NUCLEAR, SCAD, PenaltySpec
from lowrankpen.simlab import (
    AllAboveNu,
    MixedSpectrum,
    PenaltyTemplate,
    TrialSpec,
)
from lowrankpen.solver import DivergenceError, SolverConfig, fit

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_INPUT = 2
EXIT_IO = 3
EXIT_RESOURCE = 4

MAX_CELLS = 10**8


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"key '{key}': {message}")
        self.key = key


class ResourceGuardError(RuntimeError):
    pass


def _require(cfg: dict, key: str, kind, where: str = "config", default=dataclasses.MISSING):
    """``cfg[key]`` checked to be of JSON kind ``kind``, or ``default`` when
    the key is absent and a default is given.  The value itself is checked by
    the class it builds."""
    if key not in cfg:
        if default is dataclasses.MISSING:
            raise ConfigError(key, f"missing from {where}")
        return default
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(key, f"expected {kind.__name__}")
    return value


def _field_error(exc: ValueError, keys, fallback: str) -> ConfigError:
    """ConfigError for a spec class's rejection, naming the key its message
    opens with when that is one of ``keys``."""
    field = str(exc).split(" ", 1)[0]
    return ConfigError(field if field in keys else fallback, str(exc))


_JSON_KINDS = {"int": int, "float": float, "str": str}


def _read_fields(cls, doc: dict, where: str) -> dict:
    """The fields of dataclass ``cls`` that hold one JSON scalar, read from
    ``doc`` by :func:`_require` with the kind and default the class declares."""
    return {
        f.name: _require(doc, f.name, _JSON_KINDS[f.type], where, f.default)
        for f in dataclasses.fields(cls)
        if f.type in _JSON_KINDS
    }


def _read_section(cls, doc: dict, where: str, tags=()):
    """``cls`` built from the config section ``doc``: its fields read by
    :func:`_read_fields`, a key that is neither a field nor one of ``tags``
    rejected by name, and a rejection by ``cls`` reported under the field its
    message opens with, or else under ``where``."""
    fields = _read_fields(cls, doc, where)
    extra = set(doc) - {*tags, *fields}
    if extra:
        raise ConfigError(sorted(extra)[0], f"unknown key in {where}")
    try:
        return cls(**fields)
    except ValueError as exc:
        raise _field_error(exc, fields, where) from None


def _is_list_of(raw, kind) -> bool:
    """``raw`` is a nonempty list of ``kind`` values, bools excluded."""
    return isinstance(raw, list) and bool(raw) and all(
        isinstance(x, kind) and not isinstance(x, bool) for x in raw
    )


_TOP_KEYS = {f.name for f in dataclasses.fields(TrialSpec)} | {"N_grid", "out_dir"}
_SPECTRUM_RULES = {rule.kind: rule for rule in (AllAboveNu, MixedSpectrum)}


def parse_run_config(cfg: dict) -> tuple[TrialSpec, str | None]:
    """Validate a run-config document and build the TrialSpec it describes.

    The keys and their JSON kinds and defaults are the fields of
    :class:`TrialSpec`, of its spectrum rule, penalty templates and
    :class:`SolverConfig`, plus ``N_grid`` (the rescaled sample sizes, in
    place of ``n_grid``) and ``out_dir``.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown key")

    scalars = _read_fields(TrialSpec, cfg, "config")
    model, m1, m2, r = (scalars[key] for key in ("model", "m1", "m2", "r"))
    if model not in (simlab.COMPLETION, simlab.SENSING):
        raise ConfigError("model", f"must be 'completion' or 'sensing', got {model!r}")
    for key, size in (("m1", m1), ("m2", m2)):
        if size < 1:
            raise ConfigError(key, "dimensions must be positive")

    rule_doc = _require(cfg, "spectrum_rule", dict)
    kind = rule_doc.get("kind")
    rule_type = _SPECTRUM_RULES.get(kind) if isinstance(kind, str) else None
    if rule_type is None:
        raise ConfigError("spectrum_rule.kind", "must be 'all_above_nu' or 'mixed'")
    rule = _read_section(rule_type, rule_doc, "spectrum_rule", tags={"kind"})

    if ("n_grid" in cfg) == ("N_grid" in cfg):
        raise ConfigError("n_grid", "exactly one of n_grid / N_grid is required")
    if "n_grid" in cfg:
        if not _is_list_of(cfg["n_grid"], int):
            raise ConfigError("n_grid", "must be a nonempty list of integers")
        n_grid = tuple(cfg["n_grid"])
    else:
        if not _is_list_of(cfg["N_grid"], (int, float)):
            raise ConfigError("N_grid", "must be a nonempty list of numbers")
        try:
            n_grid = tuple(
                simlab.raw_sample_size(model, float(x), r, max(m1, m2)) for x in cfg["N_grid"]
            )
        except (ValueError, OverflowError) as exc:
            # a 1 x 1 completion shape is rejected by name; NaN and overflow by N_grid
            raise _field_error(exc, ("m1",), "N_grid") from None
        if min(n_grid) < 1:
            raise ConfigError(
                "N_grid", f"entries must give sample sizes of at least 1, got n = {min(n_grid)}"
            )

    penalties = []
    for i, doc in enumerate(_require(cfg, "penalties", list)):
        if not isinstance(doc, dict):
            raise ConfigError("penalties", f"entry {i} must be an object")
        penalties.append(_read_section(PenaltyTemplate, doc, f"penalties[{i}]"))

    solver = _read_section(SolverConfig, _require(cfg, "solver", dict, default={}), "solver")

    out_dir = cfg.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir", "must be a string path")

    try:
        spec = TrialSpec(
            **scalars,
            spectrum_rule=rule,
            n_grid=n_grid,
            penalties=tuple(penalties),
            solver=solver,
        )
    except ValueError as exc:
        raise _field_error(exc, _TOP_KEYS, "<spec>") from None
    return spec, out_dir


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs", f"must be at least 1, got {args.jobs}")
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<json>", f"config is not valid JSON: {exc}") from None
    spec, cfg_out = parse_run_config(cfg)
    _guard_trial(spec)
    out_dir = args.out_dir or cfg_out
    if not out_dir:
        raise ConfigError("out_dir", "missing (set it in the config or pass --out-dir)")
    t0 = time.perf_counter()
    result = simlab.run_grid(spec, jobs=args.jobs)
    elapsed = time.perf_counter() - t0
    # made only now, so a grid that fails leaves no empty directory behind
    os.makedirs(out_dir, exist_ok=True)
    simlab.write_trials_csv(os.path.join(out_dir, "results.csv"), result.trials)
    simlab.write_meta_json(os.path.join(out_dir, "meta.json"), spec, elapsed)
    print(
        f"simulate: {len(result.trials)} trials "
        f"({len(spec.n_grid)} n x {len(spec.penalties)} penalties x {spec.repeats} repeats) "
        f"in {elapsed:.1f}s -> {out_dir}/results.csv"
    )
    return EXIT_OK


def _fit_file_data(args, m1: int, m2: int, entries: np.ndarray, y: np.ndarray):
    """Penalty and fit of the observations ``y`` of the m1 x m2 cells
    ``entries`` under the flags of ``args``.  No step flag exists, so a fit
    that diverges (:func:`fit` raises on any non-finite iterate, objective,
    residual or spectrum) was driven there by the input values: that is
    invalid input."""
    design = CompletionDesign(m1=m1, m2=m2, entries=entries)
    obs = ObservationSet(design=design, y=y)
    lam = args.lam
    if lam is None:
        if args.sigma is None:
            raise ConfigError("lambda", "pass --lambda or --sigma to resolve it")
        lam = simlab.standard_lambda(simlab.COMPLETION, args.sigma, m1, m2, design.n, args.c)
        if not (math.isfinite(lam) and lam > 0):
            raise ConfigError(
                "--c",
                f"must give a finite positive lambda, got lambda = {lam!r} at n = {design.n}",
            )
    # zeta_minus at half the completion curvature scale 1 / (m1 m2), as in
    # criterion 4; eta <= m1 m2 keeps the SCAD/MCP prox convex
    b = 1.0 + 2.0 * m1 * m2 if args.b is None else args.b
    penalty = PenaltySpec(args.penalty, lam, b)
    config = SolverConfig(max_iter=args.max_iter, tol=args.tol)
    try:
        result = fit(obs, penalty, config)
    except DivergenceError as exc:
        raise InputFormatError(f"the fit overflowed on the input values ({exc})") from None
    return penalty, result


def _read_triplet_file(args) -> tuple[np.ndarray, int, int]:
    """Triplets of ``args.input`` and the m1 x m2 shape they index into.

    The shape is ``--m1`` / ``--m2``, or one past the largest index.  An
    index outside it is an input error naming its line; negative indices
    never get here, the reader rejects them.  The checks run on the float
    columns, so an index past int64 cannot wrap on a cast.
    """
    triplets, lines = fileio.read_triplets(args.input)
    jj, kk = triplets[:, 0], triplets[:, 1]
    m1 = args.m1 if args.m1 else int(jj.max()) + 1
    m2 = args.m2 if args.m2 else int(kk.max()) + 1
    _guard_cells(m1, m2)
    bad = np.flatnonzero((jj >= m1) | (kk >= m2))
    if bad.size:
        j, k = int(jj[bad[0]]), int(kk[bad[0]])
        raise InputFormatError(f"index ({j},{k}) outside {m1}x{m2}", int(lines[bad[0]]))
    return triplets, m1, m2


def _guard_cells(m1: int, m2: int) -> None:
    if m1 * m2 > MAX_CELLS:
        raise ResourceGuardError(
            f"matrix of {m1} x {m2} = {m1 * m2} cells exceeds the {MAX_CELLS} guard"
        )


def _guard_trial(spec: TrialSpec) -> None:
    """Floats one trial allocates: the m1 x m2 iterate plus the n index pairs
    and responses for completion; the n x m1 x m2 design plus its
    (m1*m2)^2 Gram matrix for sensing."""
    d = spec.m1 * spec.m2
    if spec.model == simlab.SENSING:
        floats = max(spec.n_grid) * d + d * d
    else:
        floats = d + 3 * max(spec.n_grid)
    if floats > MAX_CELLS:
        raise ResourceGuardError(
            f"one {spec.model} trial needs {floats} floats, over the {MAX_CELLS} guard"
        )


def _check_flags(args) -> None:
    """Reject flag values of ``fit`` / ``evaluate`` that parse but cannot be used."""
    if not (math.isfinite(args.c) and args.c > 0):
        raise ConfigError("--c", f"must be finite and positive, got {args.c}")
    if args.sigma is not None and not (math.isfinite(args.sigma) and args.sigma >= 0):
        raise ConfigError("--sigma", f"must be finite and nonnegative, got {args.sigma}")
    for flag, value in (("--m1", args.m1), ("--m2", args.m2)):
        if value is not None and value < 1:
            raise ConfigError(flag, f"must be at least 1, got {value}")


def cmd_fit(args) -> int:
    _check_flags(args)
    fmt = args.format
    if fmt == "auto":
        fmt = fileio.detect_format(args.input)
    if fmt == "dense":
        dense = fileio.read_dense_matrix(args.input)
        m1, m2 = dense.shape
        _guard_cells(m1, m2)
        entries = np.indices((m1, m2)).reshape(2, -1).T
        y = dense.ravel()
    else:
        triplets, m1, m2 = _read_triplet_file(args)
        entries, y = triplets[:, :2], triplets[:, 2]
    penalty, result = _fit_file_data(args, m1, m2, entries, y)
    fileio.write_dense_matrix(args.out_prefix + ".theta.csv", result.theta_hat)
    doc = result.to_dict()
    doc["lambda"] = penalty.lam
    doc["b"] = None if penalty.family == NUCLEAR else penalty.b  # the nuclear norm has no b
    doc["penalty"] = penalty.family
    fileio.write_json(args.out_prefix + ".fit.json", doc)
    print(
        f"fit: {m1}x{m2}, n={y.size}, penalty={penalty.family}, "
        f"rank_hat={result.rank_hat}, converged={result.converged} "
        f"-> {args.out_prefix}.theta.csv"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_flags(args)
    triplets, m1, m2 = _read_triplet_file(args)
    rng = np.random.default_rng(args.seed)
    train, test = simlab.holdout_split(triplets, args.holdout_fraction, rng)
    del triplets  # the split copied it; free it before the fit's SVDs
    penalty, result = _fit_file_data(args, m1, m2, train[:, :2], train[:, 2])
    score = simlab.rmse(result.theta_hat, test)
    if not math.isfinite(score):
        raise InputFormatError("the held-out RMSE overflowed on the input values")
    doc = {"rmse": score, "rank_hat": result.rank_hat, "lambda": penalty.lam, "seed": args.seed}
    fileio.write_json(args.out, doc)
    print(
        f"evaluate: n_train={train.shape[0]}, n_test={test.shape[0]}, "
        f"rmse={score:.6g}, rank_hat={result.rank_hat} -> {args.out}"
    )
    return EXIT_OK


def _add_penalty_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--penalty", choices=[NUCLEAR, SCAD, MCP], default=SCAD)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization level; resolved from --sigma when omitted")
    p.add_argument("--b", type=float, default=None,
                   help="concavity parameter; default 1 + 2 * m1 * m2.  The step is eta = n / "
                        "(largest per-cell count) <= m1 * m2, reported in fit.json; SCAD takes "
                        "the closed-form prox, the truncated SVD and the finisher only for "
                        "b > 1 + eta (MCP: b > eta)")
    p.add_argument("--c", type=float, default=theory.DEFAULT_RULE_CONSTANT,
                   help="rule constant used when resolving lambda")
    p.add_argument("--sigma", type=float, default=None, help="noise level")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--warm-start", dest="warm_start", choices=[SolverConfig.warm_start],
                   default=SolverConfig.warm_start, help="not read; fit picks its start")
    p.add_argument("--m1", type=int, default=None, help="rows (triplet input only)")
    p.add_argument("--m2", type=int, default=None, help="columns (triplet input only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrankpen",
        description="Low-rank estimation with nonconvex spectral penalties",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation grid from a JSON config")
    p_sim.add_argument("config", help="run-config JSON path")
    p_sim.add_argument("--out-dir", default=None, help="output directory")
    p_sim.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel trial workers")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one model from a dense or triplet CSV")
    p_fit.add_argument("input", help="dense matrix CSV or j,k,value triplet CSV")
    p_fit.add_argument("out_prefix", help="writes <prefix>.theta.csv and <prefix>.fit.json")
    p_fit.add_argument("--format", choices=["auto", "dense", "triplets"], default="auto",
                       help="auto reads a file as triplets when it has the j,k,value header "
                            "or its first row reads as two integers and a number, so a "
                            "headerless dense matrix of such rows needs --format dense")
    _add_penalty_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="holdout RMSE on a triplet file")
    p_eval.add_argument("input", help="j,k,value triplet CSV")
    p_eval.add_argument("out", help="output JSON path")
    p_eval.add_argument("--holdout-fraction", dest="holdout_fraction", type=float,
                        default=0.5, help="observed share of the triplets")
    p_eval.add_argument("--seed", type=int, default=0, help="rng seed of the holdout split")
    _add_penalty_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        # argparse parses ``--flag=--`` to an empty list instead of rejecting it
        if isinstance(value, list):
            parser.error(f"argument {dest}: '--' is not a value")
    try:
        # every overflow reaches a finiteness check that exits 2; numpy's
        # floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except ValueError as exc:  # ConfigError and InputFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
