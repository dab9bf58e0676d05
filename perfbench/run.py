"""lowrankpen benchmark: seeded CLI workloads, checked outputs, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload sensing_oracle --seed 7 --seconds 35 --trace 0

With ``--trace 0`` each repetition runs the workload's CLI commands in fresh
processes (BLAS pinned to one thread), once and then as long as another
repetition fits in ``--seconds``, and reports the end-to-end metrics:
medians over repetitions for time and memory, the median of ``lowrankpen
--version`` starts taken before each repetition for set-up, and accuracy
from the checked outputs.  Every repetition must reproduce the first one's
output digest, and an untimed rerun of part of the workload at one job must
reproduce the matching records.

With ``--trace 1`` the same commands run in this process through
``lowrankpen.cli.main`` at one job, alternating untraced and traced
repetitions, and the per-layer metrics of ``tracer.LAYER_METRICS`` are
reported (medians over traced repetitions) with the tracing overhead.  A
workload with several jobs also runs once as a subprocess at its own job
count; its digest must equal the one-job digest.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment, digests and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer as tr

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up samples: two before each repetition, so one slow moment does not set
# the median, and at least five in all
SETUP_PER_REP, SETUP_MIN = 2, 5
TIME_LIMIT_S = 170.0  # whole run, including set-up and the last repetition
WORK_ROOT = ".perfbench_work"
# one process per CLI command, started the way the console script starts it
ENTRY = "from lowrankpen.cli import entrypoint; entrypoint()"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the acceptance seed")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts CLI processes against the checkout's sources and measures them."""

    def __init__(self, root: str, deadline: float):
        self.src = os.path.join(root, "src")
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=self.src, **BLAS_ENV)

    def run(self, argv: list[str], cwd: str) -> tuple[int, float, float]:
        """Run one CLI command; returns (exit code, wall seconds, peak RSS in MB).

        The RSS is the largest of the process and its reaped workers.  The
        command runs in its own session so a timeout kills its workers too.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return -1, 0.0, 0.0
        with open(os.path.join(cwd, "program.log"), "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=self.env,
                stdout=log, stderr=log, stdin=subprocess.DEVNULL, start_new_session=True,
            )
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
    }


def _new_dir(work: str, label: str) -> str:
    path = os.path.join(work, label)
    os.makedirs(path)
    return path


def measure_setup(runner: Runner, work: str, count: int) -> list[float]:
    walls = []
    for _ in range(count):
        code, wall, _ = runner.run(["--version"], work)
        if code != 0:
            raise RuntimeError(f"lowrankpen --version exited {code}")
        walls.append(wall)
    return walls


def end_to_end(workload, inputs, runner: Runner, work: str, seconds: float):
    """Fresh-process repetitions for about ``seconds``; returns (reps, setup walls)."""
    setup, reps = [], []
    start, rep_s = time.monotonic(), 0.0
    # repeat while the next repetition, as long as the last one, fits in ``seconds``
    while not reps or time.monotonic() - start + rep_s <= seconds:
        rep_start = time.monotonic()
        setup += measure_setup(runner, work, SETUP_PER_REP)
        out = _new_dir(work, f"rep{len(reps)}")
        runs = [runner.run(argv, out) for argv in workload.commands(inputs, out, workload.jobs)]
        outcome = workload.check(inputs, out, [code for code, _, _ in runs])
        reps.append({"wall": sum(w for _, w, _ in runs),
                     "rss": max(r for _, _, r in runs), "outcome": outcome})
        shutil.rmtree(out)
        rep_s = time.monotonic() - rep_start
        if time.monotonic() >= runner.deadline:
            break
    setup += measure_setup(runner, work, max(0, SETUP_MIN - len(setup)))
    return reps, setup


def rerun_check(workload, inputs, reps, runner: Runner, work: str):
    """Rerun part of the workload untimed at one job; every output record it
    shares with the first timed repetition must be identical."""
    rerun = workload.rerun_inputs(inputs)
    if rerun is None and len(reps) == 1:
        rerun = inputs  # nothing was repeated yet: repeat it all
    if rerun is None:
        return None
    out = _new_dir(work, "rerun")
    codes = [runner.run(argv, out)[0] for argv in workload.commands(rerun, out, 1)]
    outcome = workload.check(rerun, out, codes)
    outcome.digest = None  # compared by record below, not by whole-output digest
    timed = reps[0]["outcome"].records
    differing = [key for key, record in outcome.records.items()
                 if timed and timed.get(key) != record]
    if differing:
        outcome.failed += len(differing)
        outcome.problems.append(f"rerun differs from the timed run at {differing[:3]}")
    return outcome


def run_in_process(workload, inputs, out: str) -> tuple[list[int], float]:
    from lowrankpen import cli

    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in workload.commands(inputs, out, 1):
            codes.append(cli.main(argv))
    return codes, time.perf_counter() - start


def traced_reps(workload, inputs, runner: Runner, work: str, seconds: float):
    """Alternate untraced and traced in-process repetitions; returns
    (outcomes, per-layer values of each traced rep, untraced walls, traced walls,
    parallel efficiency)."""
    outcomes, layers, untraced, traced = [], [], [], []
    efficiency = 0.0
    if workload.jobs > 1:
        out = _new_dir(work, "jobs")
        runs = [runner.run(argv, out) for argv in workload.commands(inputs, out, workload.jobs)]
        outcomes.append(workload.check(inputs, out, [code for code, _, _ in runs]))
        if outcomes[-1].failed == 0:
            efficiency = workload.runtime_seconds(out) / (workload.jobs * runs[0][1])
    start, pair_s = time.monotonic(), 0.0
    while not traced or time.monotonic() - start + pair_s <= seconds:
        pair_start = time.monotonic()
        out = _new_dir(work, f"plain{len(untraced)}")
        codes, wall = run_in_process(workload, inputs, out)
        outcomes.append(workload.check(inputs, out, codes))
        untraced.append(wall)
        if workload.jobs == 1 and outcomes[-1].failed == 0:
            efficiency = workload.runtime_seconds(out) / wall
        out = _new_dir(work, f"traced{len(traced)}")
        tracer = tr.Tracer()
        with tr.installed(tracer):
            codes, wall = run_in_process(workload, inputs, out)
        outcomes.append(workload.check(inputs, out, codes))
        traced.append(wall)
        layers.append(tr.layer_values(tracer))
        pair_s = time.monotonic() - pair_start
        if time.monotonic() >= runner.deadline:
            break
    return outcomes, layers, untraced, traced, efficiency


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lowrankpen", "cli.py")):
        print("perfbench: src/lowrankpen not found; run from the repository root",
              file=sys.stderr)
        return 2
    # pin BLAS before numpy loads in this process (the traced run computes here)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, os.path.join(root, "src"))
    import lowrankpen
    from workloads import WORKLOADS

    if not os.path.abspath(lowrankpen.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"perfbench: lowrankpen imported from {lowrankpen.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    runner = Runner(root, time.monotonic() + TIME_LIMIT_S)
    work = os.path.join(root, WORK_ROOT, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = workload.prepare(work, seed)
        if args.trace:
            outcomes, layers, untraced, traced, efficiency = traced_reps(
                workload, inputs, runner, work, args.seconds)
        else:
            reps, setup = end_to_end(workload, inputs, runner, work, args.seconds)
            outcomes = [rep["outcome"] for rep in reps]
            rerun = rerun_check(workload, inputs, reps, runner, work)
            if rerun is not None:
                outcomes.append(rerun)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, WORK_ROOT))

    # every checked repetition must reproduce the first checked digest
    digest = next((o.digest for o in outcomes if o.digest), None)
    for outcome in outcomes:
        if outcome.digest and outcome.digest != digest:
            outcome.failed += 1
            outcome.problems.append("output digest differs from the first repetition")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    accuracy = next((o.accuracy for o in outcomes if o.failed == 0), {})

    info = {
        "workload": workload.name, "seed": seed, "trace": args.trace,
        "jobs": workload.jobs, "digest": digest,
        "workload_metrics": accuracy,
        "problems": [p for o in outcomes for p in o.problems][:20],
        "env": environment(),
    }
    if args.trace:
        values = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
        values["simlab.run_grid.parallel_efficiency"] = efficiency
        values["trace.untraced_wall_s"] = statistics.median(untraced)
        values["trace.traced_wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in tr.LAYER_METRICS.items()}
        info["samples"] = {"traced": len(traced), "untraced": len(untraced)}
    else:
        walls = [rep["wall"] for rep in reps]
        info["samples"] = {"wall_s": walls, "setup_s": setup}
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rep["rss"] for rep in reps), "unit": "MB"},
            "ok_rate": {"value": 1.0 - failed / attempted, "unit": "fraction"},
            # a run with no checked output scores as the all-zero estimate
            "rank_recovery_rate": {"value": accuracy.get("rank_recovery_rate", 0.0),
                                   "unit": "fraction"},
            "rel_err_p50": {"value": accuracy.get("rel_err_p50", 1.0), "unit": "ratio"},
            "converged_rate": {"value": accuracy.get("converged_rate", 0.0),
                               "unit": "fraction"},
        }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
