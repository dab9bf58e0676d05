"""Outside-in span tracing of lowrankpen, without editing the package.

:func:`installed` wraps the public functions of each module in spans.
Callers bind many of these names at import (``solver.scalar_prox``,
``simlab.fit``, ``theory.apply_forward``, ...), so every ``lowrankpen``
module that holds a traced function is patched, and all of them are restored
on exit.  Spans are aggregated per (name, parent) as they close, so hot leaf
calls such as ``scalar_prox`` cost a counter update, not a stored record.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time
import weakref
from collections import Counter

# Defining module -> functions traced; the span name is "<module>.<function>".
TRACED = {
    "penalty": ("scalar_prox", "penalty_value"),
    "operators": (
        "apply_forward", "apply_adjoint", "loss_value", "loss_gradient",
        "project_onto", "project_complement", "sample_completion_design",
        "sample_sensing_design", "generate_observations",
    ),
    "solver": ("fit", "estimate_lipschitz", "prox_spectral", "solve_oracle"),
    "theory": (
        "probe_rsc", "_refined_extrema", "split_spectrum", "tau_value",
        "cone_condition", "error_bound_general", "lambda_completion",
        "lambda_sensing", "lambda_oracle_rule",
    ),
    "simlab": (
        "run_grid", "run_trial", "write_trials_csv", "write_meta_json",
        "holdout_split", "rmse",
    ),
    "fileio": (
        "read_dense_matrix", "read_triplets", "detect_format",
        "write_dense_matrix", "write_triplets",
    ),
    "cli": ("main",),
}

# Per-layer metric groups: metric prefix -> spans whose self time it sums.
GROUPS = {
    "operators.loss": ("operators.loss_value", "operators.loss_gradient"),
    "operators.project": ("operators.project_onto", "operators.project_complement"),
    "operators.sample": (
        "operators.sample_completion_design", "operators.sample_sensing_design",
        "operators.generate_observations",
    ),
    "theory.diagnostics": (
        "theory.split_spectrum", "theory.tau_value", "theory.cone_condition",
        "theory.error_bound_general", "theory.lambda_completion",
        "theory.lambda_sensing", "theory.lambda_oracle_rule",
    ),
    "simlab.io": ("simlab.write_trials_csv", "simlab.write_meta_json"),
    "simlab.holdout": ("simlab.holdout_split", "simlab.rmse"),
    "fileio.read": ("fileio.read_dense_matrix", "fileio.read_triplets", "fileio.detect_format"),
    "fileio.write": ("fileio.write_dense_matrix", "fileio.write_triplets"),
}


class Tracer:
    """Span stack plus per-(name, parent) aggregates and work counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.spans: dict[tuple, list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.trial_seconds: list[float] = []  # inclusive run_trial durations
        self.counters: Counter = Counter()
        self.fit_residuals: list[float] = []
        self._designs: dict[int, weakref.ref] = {}

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        observe = _OBSERVERS.get(name)
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = self.spans.get((name, parent))
                if agg is None:
                    agg = self.spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if observe is not None:
                    observe(self, parent, elapsed, args, result, error)

        return traced

    # -- aggregate views -------------------------------------------------
    def calls(self, name: str) -> int:
        return sum(agg[0] for (n, _), agg in self.spans.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(agg[1] for (n, _), agg in self.spans.items() if n == name)

    def self_s(self, *names: str) -> float:
        return sum(agg[2] for (n, _), agg in self.spans.items() if n in names)

    def note_design(self, design) -> None:
        ref = self._designs.get(id(design))
        if ref is None or ref() is not design:
            self.counters["distinct_designs"] += 1
            self._designs[id(design)] = weakref.ref(design)


def _design_bytes(design) -> int:
    """Bytes of design data one forward or adjoint pass reads (computed, not measured)."""
    if hasattr(design, "entries"):
        return design.n * 24  # two int64 indices and one float64 per observation
    return design.n * design.m1 * design.m2 * 8


def _operator_observer(key):
    def observe(tracer, parent, elapsed, args, result, error):
        tracer.counters[key] += _design_bytes(args[0])
    return observe


def _observe_fit(tracer, parent, elapsed, args, result, error):
    if error is not None:
        if type(error).__name__ == "DivergenceError":
            tracer.counters["fit_diverged"] += 1
        return
    warm = parent == "solver.fit"
    tracer.counters["fit_warm_iters" if warm else "fit_iters"] += result.iterations
    tracer.counters["fit_returned"] += 1
    tracer.counters["fit_converged"] += bool(result.converged)
    if not warm:
        tracer.fit_residuals.append(float(result.fixed_point_residual))


def _observe_lipschitz(tracer, parent, elapsed, args, result, error):
    tracer.note_design(args[0])


def _observe_main(tracer, parent, elapsed, args, result, error):
    tracer.counters["main_nonzero_exit"] += error is not None or result != 0


def _file_observer(key):
    def observe(tracer, parent, elapsed, args, result, error):
        with contextlib.suppress(OSError):
            tracer.counters[key] += os.path.getsize(args[0])
    return observe


def _keep_duration(tracer, parent, elapsed, args, result, error):
    tracer.trial_seconds.append(elapsed)


_OBSERVERS = {
    "operators.apply_forward": _operator_observer("forward_bytes"),
    "operators.apply_adjoint": _operator_observer("adjoint_bytes"),
    "solver.fit": _observe_fit,
    "solver.estimate_lipschitz": _observe_lipschitz,
    "cli.main": _observe_main,
    "simlab.run_trial": _keep_duration,
    **{f"fileio.{f}": _file_observer("read_bytes")
       for f in ("read_dense_matrix", "read_triplets")},
    **{f"fileio.{f}": _file_observer("write_bytes")
       for f in ("write_dense_matrix", "write_triplets")},
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced function in every loaded lowrankpen module; restore on exit."""
    originals = {}
    for module_name, functions in TRACED.items():
        module = importlib.import_module(f"lowrankpen.{module_name}")
        for fn_name in functions:
            fn = getattr(module, fn_name)
            originals[id(fn)] = (fn, tracer.wrap(f"{module_name}.{fn_name}", fn))
    patches = []
    try:
        for name, module in list(sys.modules.items()):
            if name != "lowrankpen" and not name.startswith("lowrankpen."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patches.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)


# Per-layer metrics: name -> unit.  ``bytes_computed`` counts come from array
# shapes (n*m1*m2*8 per sensing pass, n*24 per completion pass), not from a
# hardware counter.
LAYER_METRICS = {
    "penalty.scalar_prox.calls": "count",
    "penalty.scalar_prox.self_s": "s",
    "penalty.penalty_value.self_s": "s",
    "operators.apply_forward.calls": "count",
    "operators.apply_forward.self_s": "s",
    "operators.apply_forward.bytes_computed": "bytes",
    "operators.apply_adjoint.calls": "count",
    "operators.apply_adjoint.self_s": "s",
    "operators.apply_adjoint.bytes_computed": "bytes",
    "operators.loss.self_s": "s",
    "operators.project.self_s": "s",
    "operators.sample.self_s": "s",
    "solver.fit.calls": "count",
    "solver.fit.self_s": "s",
    "solver.fit.iters": "count",
    "solver.fit.warm_iters": "count",
    "solver.fit.converged_ratio": "fraction",
    "solver.fit.diverged": "count",
    "solver.fit.fpr_p50": "norm",
    "solver.estimate_lipschitz.calls": "count",
    "solver.estimate_lipschitz.self_s": "s",
    "solver.estimate_lipschitz.per_design": "ratio",
    "solver.prox_spectral.calls": "count",
    "solver.prox_spectral.self_s": "s",
    "solver.solve_oracle.calls": "count",
    "solver.solve_oracle.self_s": "s",
    "theory.probe_rsc.calls": "count",
    "theory.probe_rsc.sample_s": "s",
    "theory.probe_rsc.refine_s": "s",
    "theory.diagnostics.self_s": "s",
    "simlab.run_trial.calls": "count",
    "simlab.run_trial.self_s": "s",
    "simlab.run_trial.p50_s": "s",
    "simlab.run_trial.max_s": "s",
    "simlab.run_grid.self_s": "s",
    "simlab.run_grid.parallel_efficiency": "ratio",
    "simlab.io.self_s": "s",
    "simlab.holdout.self_s": "s",
    "fileio.read.self_s": "s",
    "fileio.read.bytes": "bytes",
    "fileio.write.self_s": "s",
    "fileio.write.bytes": "bytes",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.nonzero_exit": "count",
    "trace.overhead_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from one traced run (the trace.* and parallel
    efficiency entries are filled in by the caller)."""
    c = tracer.counters
    trials = tracer.trial_seconds
    probe = tracer.total_s("theory.probe_rsc")
    refine = tracer.total_s("theory._refined_extrema")
    lipschitz_calls = tracer.calls("solver.estimate_lipschitz")
    values = {
        "penalty.scalar_prox.calls": tracer.calls("penalty.scalar_prox"),
        "penalty.scalar_prox.self_s": tracer.self_s("penalty.scalar_prox"),
        "penalty.penalty_value.self_s": tracer.self_s("penalty.penalty_value"),
        "operators.apply_forward.bytes_computed": c["forward_bytes"],
        "operators.apply_adjoint.bytes_computed": c["adjoint_bytes"],
        "solver.fit.iters": c["fit_iters"],
        "solver.fit.warm_iters": c["fit_warm_iters"],
        "solver.fit.converged_ratio": c["fit_converged"] / max(c["fit_returned"], 1),
        "solver.fit.diverged": c["fit_diverged"],
        "solver.fit.fpr_p50": statistics.median(tracer.fit_residuals) if tracer.fit_residuals else 0.0,
        "solver.estimate_lipschitz.per_design": lipschitz_calls / max(c["distinct_designs"], 1),
        # the probe's sampling phase is everything outside the refinement
        "theory.probe_rsc.calls": tracer.calls("theory.probe_rsc"),
        "theory.probe_rsc.sample_s": probe - refine,
        "theory.probe_rsc.refine_s": refine,
        "simlab.run_trial.p50_s": statistics.median(trials) if trials else 0.0,
        "simlab.run_trial.max_s": max(trials, default=0.0),
        "simlab.run_grid.self_s": tracer.self_s("simlab.run_grid"),
        "fileio.read.bytes": c["read_bytes"],
        "fileio.write.bytes": c["write_bytes"],
        "cli.main.nonzero_exit": c["main_nonzero_exit"],
    }
    for span in ("operators.apply_forward", "operators.apply_adjoint", "solver.fit",
                 "solver.estimate_lipschitz", "solver.prox_spectral", "solver.solve_oracle",
                 "simlab.run_trial", "cli.main"):
        values[f"{span}.calls"] = tracer.calls(span)
        values[f"{span}.self_s"] = tracer.self_s(span)
    for group, names in GROUPS.items():
        values[f"{group}.self_s"] = tracer.self_s(*names)
    return values
