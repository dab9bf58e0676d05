"""Benchmark workloads: seeded inputs, the CLI commands that run them, and
the checks applied to every output.

Each workload is one set of inputs given to the ``lowrankpen`` CLI.  The
benchmark seed replaces the acceptance-suite seed, so ``--seed`` picks a
fresh grid (or ratings file) of the same shape.  Why each workload exists:

* ``sensing_oracle`` -- criterion-5 grid (n=3000, oracle lambda rule).  Few
  iterations, but every forward/adjoint sweeps a 1.2M-entry design: bound by
  the sensing operators.
* ``completion_compare`` -- criterion-4 grid (completion 40x40, r=13, SCAD
  against the nuclear norm) at two worker processes.  The only workload on
  the completion gather/scatter path, the sampled probe and the process pool.
* ``ratings_cli`` -- ``fit`` then ``evaluate`` on a seeded 200x200 rank-5
  triplet file.  The only workload on ``fileio``; bound by the 200x200 SVD.

The criterion-3 grid (sensing 20x20, r=5, n in {300, 500}) is not a
workload: its wall time is thousands of Python-level prox steps per trial,
and on a 2-vCPU VM its ten-seed quartile spread was 0.09 to 0.17 of the
median (0.075 from iteration counts alone), too wide for a 0.25 bound.

A unit of work is one trial or one CLI command.  A unit fails on a non-zero
exit, a diverged trial or a failed output check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

CSV_COLUMNS = (
    "model,m1,m2,r,n,N,penalty,lambda,b,repeat,seed,mse,frob_err,rank_hat,"
    "rank_correct,oracle_match,bound_total,bound_holds,converged,"
    "fixed_point_residual,runtime_seconds"
).split(",")
RUNTIME_COLUMN = CSV_COLUMNS.index("runtime_seconds")
PROBE_DIRECTIONS = 200  # simlab default; the configs below do not override it
CONE_FACTOR = 5.0  # upper end of the probe's complement/aligned ratio draw


@dataclass
class Outcome:
    """Checked result of one repetition of a workload."""

    attempted: int
    failed: int
    digest: str | None = None
    accuracy: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    # deterministic output pieces by key, compared against a rerun
    records: dict = field(default_factory=dict)


def digest_files(paths, drop_column: int | None = None) -> str:
    """sha256 over the files in order; ``drop_column`` removes one CSV column."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if drop_column is not None:
            lines = data.decode().splitlines()
            data = "\n".join(
                ",".join(c for i, c in enumerate(line.split(",")) if i != drop_column)
                for line in lines
            ).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def trial_seed(base_seed: int, n: int, penalty_index: int, repeat_index: int) -> int:
    """The documented per-trial substream seed rule, recomputed independently."""
    ss = np.random.SeedSequence(
        [base_seed & 0xFFFFFFFFFFFFFFFF, n, penalty_index, repeat_index]
    )
    return int(ss.generate_state(1, np.uint64)[0])


def replay_truth_frob(cfg: dict, n: int, seed: int, lam: float, b: float) -> float:
    """||Theta*||_F of one trial, regenerated from its seed column.

    Replays the trial's documented draw order -- singular frames, design,
    curvature-probe directions, truth spectrum -- and returns the norm of the
    spectrum, which equals ||Theta*||_F because the frames are orthonormal.
    Only the all_above_nu spectrum rule is supported.
    """
    m1, m2, r = cfg["m1"], cfg["m2"], cfg["r"]
    rng = np.random.default_rng(seed)
    rng.standard_normal((m1, m2))
    if cfg["model"] == "completion":
        rng.integers(0, m1, size=n)
        rng.integers(0, m2, size=n)
    else:
        rng.standard_normal((n, m1, m2))
    for _ in range(PROBE_DIRECTIONS):
        rng.standard_normal((m1, m2))
        rng.uniform(0.0, CONE_FACTOR)
        if r < min(m1, m2):
            rng.standard_normal((m1, m2))
    lo = b * lam * (1.0 + cfg["spectrum_rule"]["margin"])
    return float(np.linalg.norm(rng.uniform(lo, 2.0 * lo, size=r)))


def _parse_bool(text: str) -> bool | None:
    return {"true": True, "false": False, "": None}[text]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class SimulateWorkload:
    """A ``lowrankpen simulate`` grid; one trial per output row."""

    def __init__(self, name: str, config: dict, default_seed: int, jobs: int):
        self.name = name
        self.config = config
        self.default_seed = default_seed
        self.jobs = jobs

    def expected_n(self) -> list[int]:
        cfg = self.config
        if "n_grid" in cfg:
            return list(cfg["n_grid"])
        m = max(cfg["m1"], cfg["m2"])
        scale = cfg["r"] * m * (math.log(m) if cfg["model"] == "completion" else 1.0)
        return [int(round(N * scale)) for N in cfg["N_grid"]]

    def prepare(self, work: str, seed: int) -> dict:
        truth: dict = {}  # ||Theta*||_F by trial seed, shared with the rerun
        inputs = {}
        for key, repeats in (("timed", self.config["repeats"]), ("rerun", 1)):
            cfg = dict(self.config, base_seed=seed, repeats=repeats)
            path = os.path.join(work, f"{key}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh, indent=2, sort_keys=True)
            inputs[key] = {"config": cfg, "config_path": path, "truth": truth}
        return dict(inputs["timed"], rerun=inputs["rerun"])

    def rerun_inputs(self, inputs: dict) -> dict:
        """The first repeat of every grid cell as its own grid.  Trial seeds
        do not depend on the repeat count, so its rows must equal the timed
        run's rows for those trials."""
        return inputs["rerun"]

    def commands(self, inputs: dict, out: str, jobs: int) -> list[list[str]]:
        return [["simulate", inputs["config_path"], "--out-dir", out, "--jobs", str(jobs)]]

    def runtime_seconds(self, out: str) -> float:
        """Serial trial time recorded in results.csv."""
        with open(os.path.join(out, "results.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        return sum(float(row.split(",")[RUNTIME_COLUMN]) for row in rows)

    def check(self, inputs: dict, out: str, exit_codes: list[int]) -> Outcome:
        cfg = inputs["config"]
        units = 1 + len(self.expected_n()) * len(cfg["penalties"]) * cfg["repeats"]
        if exit_codes != [0]:
            return Outcome(units, units, problems=[f"simulate exited {exit_codes}"])
        csv_path = os.path.join(out, "results.csv")
        problems = []
        try:
            with open(os.path.join(out, "meta.json")) as fh:
                meta = json.load(fh)
            if meta["spec"]["base_seed"] != cfg["base_seed"]:
                problems.append("meta.json: base_seed differs from the config")
            with open(csv_path) as fh:
                lines = fh.read().splitlines()
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(units, units, problems=[f"unreadable output: {exc}"])
        if lines[:1] != [",".join(CSV_COLUMNS)]:
            return Outcome(units, units, problems=["results.csv header differs"])

        expected = [
            (n, p, rep)
            for n in self.expected_n()
            for p in range(len(cfg["penalties"]))
            for rep in range(cfg["repeats"])
        ]
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        failed = len(problems)  # a bad meta.json fails the command unit
        if len(rows) != len(expected):
            problems.append(f"{len(rows)} rows, expected {len(expected)}")
            failed += abs(len(expected) - len(rows))
        for row, key in zip(rows, expected):
            issue = self._row_problem(cfg, row, key)
            if issue:
                failed += 1
                problems.append(f"row n={key[0]} p={key[1]} rep={key[2]}: {issue}")
        outcome = Outcome(units, failed, problems=problems)
        if failed == 0:
            outcome.digest = digest_files([csv_path], drop_column=RUNTIME_COLUMN)
            outcome.accuracy = self._accuracy(cfg, rows, inputs["truth"])
            outcome.records = {
                key: [v for col, v in row.items() if col != "runtime_seconds"]
                for key, row in zip(expected, rows)
            }
        return outcome

    def _row_problem(self, cfg: dict, row: dict, key) -> str | None:
        n, p, rep = key
        tpl = cfg["penalties"][p]
        try:
            if (row["model"], int(row["m1"]), int(row["m2"]), int(row["r"])) != (
                cfg["model"], cfg["m1"], cfg["m2"], cfg["r"]
            ):
                return "model or shape differs from the config"
            if (int(row["n"]), row["penalty"], float(row["b"]), int(row["repeat"])) != (
                n, tpl["family"], float(tpl["b"]), rep
            ):
                return "grid position out of order"
            if int(row["seed"]) != trial_seed(cfg["base_seed"], n, p, rep):
                return "seed does not follow the substream rule"
            rank_hat = int(row["rank_hat"])
            mse, frob = float(row["mse"]), float(row["frob_err"])
            if rank_hat < 0 or not (math.isfinite(mse) and math.isfinite(frob)):
                return "diverged"
            if not _close(mse, frob * frob / (cfg["m1"] * cfg["m2"]), 1e-9):
                return "mse disagrees with frob_err"
            if _parse_bool(row["rank_correct"]) != (rank_hat == cfg["r"]):
                return "rank_correct disagrees with rank_hat"
            lam = float(row["lambda"])
            if not (lam > 0 and math.isfinite(lam)):
                return "lambda is not positive"
            if not math.isfinite(float(row["fixed_point_residual"])):
                return "fixed_point_residual is not finite"
            if _parse_bool(row["converged"]) is None:
                return "converged is empty"
            holds = _parse_bool(row["bound_holds"])
            if row["bound_total"]:
                if holds != (frob <= float(row["bound_total"])):
                    return "bound_holds disagrees with bound_total"
            elif holds is not None:
                return "bound_holds set without bound_total"
            oracle = _parse_bool(row["oracle_match"])
            if tpl["family"] == "nuclear" and oracle is not None:
                return "oracle_match set for the nuclear norm"
            if not float(row["runtime_seconds"]) > 0:
                return "runtime_seconds is not positive"
        except (KeyError, ValueError) as exc:
            return f"malformed field ({exc})"
        return None

    def _accuracy(self, cfg: dict, rows: list[dict], truth: dict) -> dict:
        # relative errors per grid cell; the metric averages the cell medians,
        # since one median over cells of different n falls between them
        cells: dict[tuple, list] = {}
        for row in rows:
            key = int(row["seed"])
            if key not in truth:
                truth[key] = replay_truth_frob(
                    cfg, int(row["n"]), key, float(row["lambda"]), float(row["b"])
                )
            cell = cells.setdefault((row["n"], row["penalty"]), [])
            cell.append(float(row["frob_err"]) / truth[key])
        acc = {
            "rank_recovery_rate": float(np.mean([row["rank_correct"] == "true" for row in rows])),
            "rel_err_p50": float(np.mean([np.median(cell) for cell in cells.values()])),
            "converged_rate": float(np.mean([row["converged"] == "true" for row in rows])),
        }
        oracle = [row["oracle_match"] == "true" for row in rows if row["oracle_match"]]
        if oracle:
            acc["oracle_match_rate"] = float(np.mean(oracle))
        bounds = [row["bound_holds"] == "true" for row in rows if row["bound_holds"]]
        if bounds:
            acc["bound_hold_rate"] = float(np.mean(bounds))
        families = [tpl["family"] for tpl in cfg["penalties"]]
        if "scad" in families and "nuclear" in families:
            ratios = []
            for n in sorted({int(row["n"]) for row in rows}):
                mean = {
                    fam: np.mean([float(r["mse"]) for r in rows
                                  if int(r["n"]) == n and r["penalty"] == fam])
                    for fam in ("scad", "nuclear")
                }
                ratios.append(mean["scad"] / mean["nuclear"])
            acc["scad_nuclear_mse_ratio"] = float(np.mean(ratios))
        return acc


class RatingsWorkload:
    """``lowrankpen fit`` and ``evaluate`` on a generated triplet file."""

    name = "ratings_cli"
    default_seed = 5
    jobs = 1
    m1 = m2 = 200
    rank = 5
    cells = 16000
    sigma = 0.5
    lam = 6e-4
    b = 80001.0  # 1 + 2*m^2, the criterion-4 concavity rule at m = 200
    holdout_fraction = 0.8

    def runtime_seconds(self, out: str) -> float:
        return 0.0  # no trials

    def rerun_inputs(self, inputs: dict) -> None:
        return None  # repetitions of the whole workload already compare digests

    def generate(self, path: str, seed: int) -> np.ndarray:
        """Write the seeded ratings file and return the true matrix.

        Random orthonormal frames, a fixed spectrum evenly spaced in
        [1.25, 2.5] times the SCAD flat threshold b*lambda, distinct cells
        drawn without replacement, Gaussian noise.  The program receives only
        the file; the true matrix stays with the benchmark.
        """
        rng = np.random.default_rng([0x52415447, seed])
        u, _ = np.linalg.qr(rng.standard_normal((self.m1, self.rank)))
        v, _ = np.linalg.qr(rng.standard_normal((self.m2, self.rank)))
        nu = self.b * self.lam
        theta = (u * np.linspace(2.5 * nu, 1.25 * nu, self.rank)) @ v.T
        flat = np.sort(rng.choice(self.m1 * self.m2, size=self.cells, replace=False))
        jj, kk = np.divmod(flat, self.m2)
        values = theta[jj, kk] + self.sigma * rng.standard_normal(self.cells)
        with open(path, "w") as fh:
            fh.write("j,k,value\n")
            fh.writelines(
                f"{j},{k},{x!r}\n" for j, k, x in zip(jj.tolist(), kk.tolist(), values.tolist())
            )
        return theta

    def prepare(self, work: str, seed: int) -> dict:
        seed &= 0xFFFFFFFF  # the generator and the CLI's --seed take nonnegative seeds
        path = os.path.join(work, "ratings.csv")
        theta = self.generate(path, seed)
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
        return {"path": path, "theta": theta, "seed": seed,
                "value_rms": float(np.sqrt(np.mean(values**2)))}

    def _flags(self) -> list[str]:
        return ["--penalty", "scad", "--lambda", repr(self.lam), "--b", repr(self.b),
                "--warm-start", "nuclear"]

    def commands(self, inputs: dict, out: str, jobs: int) -> list[list[str]]:
        prefix = os.path.join(out, "fit")
        return [
            ["fit", inputs["path"], prefix, *self._flags()],
            ["evaluate", inputs["path"], os.path.join(out, "eval.json"),
             "--holdout-fraction", repr(self.holdout_fraction),
             "--seed", str(inputs["seed"]), *self._flags()],
        ]

    def check(self, inputs: dict, out: str, exit_codes: list[int]) -> Outcome:
        paths = [os.path.join(out, name) for name in ("fit.fit.json", "fit.theta.csv", "eval.json")]
        outcome = Outcome(2, 0)
        fit_problem = f"fit exited {exit_codes[0]}" if exit_codes[0] else None
        eval_problem = f"evaluate exited {exit_codes[1]}" if exit_codes[1] else None
        if fit_problem is None:
            try:
                with open(paths[0]) as fh:
                    doc = json.load(fh)
                theta_hat = np.loadtxt(paths[1], delimiter=",", ndmin=2)
                fit_problem = self._fit_problem(doc, theta_hat)
            except (OSError, ValueError, KeyError) as exc:
                fit_problem = f"unreadable fit output ({exc})"
        if eval_problem is None:
            try:
                with open(paths[2]) as fh:
                    ev = json.load(fh)
                eval_problem = self._eval_problem(ev, inputs)
            except (OSError, ValueError, KeyError) as exc:
                eval_problem = f"unreadable evaluate output ({exc})"
        outcome.problems = [p for p in (fit_problem, eval_problem) if p]
        outcome.failed = len(outcome.problems)
        if outcome.failed:
            return outcome
        outcome.digest = digest_files(paths)
        outcome.records = {os.path.basename(p): digest_files([p]) for p in paths}
        theta = inputs["theta"]
        outcome.accuracy = {
            # The evaluate fit sees 80% of the cells at the same lambda, which
            # puts the top noise singular value at the SCAD threshold: its
            # rank is 5 or 6 by seed (6 on 2 of 24 seeds), so it is reported
            # on its own instead of making the rate jump between 0.5 and 1.
            "rank_recovery_rate": float(doc["rank_hat"] == self.rank),
            "rel_err_p50": float(np.linalg.norm(theta_hat - theta) / np.linalg.norm(theta)),
            "converged_rate": float(bool(doc["converged"])),
            "holdout_rmse": float(ev["rmse"]),
            "evaluate_rank_hat": ev["rank_hat"],
        }
        return outcome

    def _fit_problem(self, doc: dict, theta_hat: np.ndarray) -> str | None:
        if theta_hat.shape != (self.m1, self.m2) or not np.all(np.isfinite(theta_hat)):
            return f"theta.csv is not a finite {self.m1}x{self.m2} matrix"
        if doc["penalty"] != "scad" or doc["lambda"] != self.lam:
            return "fit.json does not echo the penalty flags"
        s = np.linalg.svd(theta_hat, compute_uv=False)
        spectrum = np.asarray(doc["spectrum"], dtype=float)
        if spectrum.shape != s.shape or np.abs(spectrum - s).max() > 1e-8 * s[0]:
            return "fit.json spectrum disagrees with the SVD of theta.csv"
        if doc["rank_hat"] != int(np.count_nonzero(s > 1e-4 * s[0])):  # --rank-tol default
            return "rank_hat disagrees with the numeric rank of theta.csv"
        if not (doc["iterations"] >= 1 and math.isfinite(doc["fixed_point_residual"])):
            return "fit.json iteration record is invalid"
        return None

    def _eval_problem(self, ev: dict, inputs: dict) -> str | None:
        rmse = float(ev["rmse"])
        if not 0 < rmse < inputs["value_rms"]:
            return f"holdout rmse {rmse} is not below the all-zero prediction"
        if ev["seed"] != inputs["seed"] or ev["lambda"] != self.lam or ev["rank_hat"] < 0:
            return "eval.json does not echo its inputs"
        return None


_WARM_NUCLEAR = {"warm_start": "nuclear"}

WORKLOADS = {
    w.name: w
    for w in (
        SimulateWorkload(
            "sensing_oracle",
            {
                "model": "sensing", "m1": 20, "m2": 20, "r": 4, "sigma": 1.0,
                "spectrum_rule": {"kind": "all_above_nu", "margin": 10.0},
                "n_grid": [3000], "penalties": [{"family": "scad", "b": 5.0}],
                "repeats": 20, "solver": _WARM_NUCLEAR, "lambda_rule": "oracle",
            },
            default_seed=31,
            jobs=1,
        ),
        SimulateWorkload(
            "completion_compare",
            {
                "model": "completion", "m1": 40, "m2": 40, "r": 13, "sigma": 0.5,
                "spectrum_rule": {"kind": "all_above_nu", "margin": 0.2},
                "N_grid": [2, 3, 4, 5],
                "penalties": [{"family": "scad", "b": 3201.0},
                              {"family": "nuclear", "b": 3201.0}],
                "repeats": 4, "solver": _WARM_NUCLEAR,
            },
            default_seed=4101,
            jobs=2,
        ),
        RatingsWorkload(),
    )
}
