"""Exit-code fuzzer: malformed input exits 0, 2, 3 or 4, never 1.

Runs in-process through ``cli.main`` at ``--jobs 1``.  Each example changes
one key of a tiny valid ``simulate`` config, or one flag of a tiny ``fit`` /
``evaluate`` run (or ``simulate --jobs``), to a value drawn from NaN, +-inf,
null, bools, strings, lists, negatives, zero and fractions.  A second base
config takes its sample sizes from ``N_grid`` and its spectrum from the
``mixed`` rule, whose keys and entries are fuzzed too; a third has fewer
observations than the oracle's r^2 coefficients, and its ``r`` and
``n_grid`` are fuzzed.  A ``simulate`` that
exits nonzero must leave no output directory behind.  The input files of
``fit`` (triplet and dense) and ``evaluate`` are fuzzed by replacing one
cell (a dense entry, or a triplet's index or value) with a token from a
fixed set; a run that exits 0 must write
JSON that parses with NaN and the infinities rejected.  Integer draws stay
small: a large ``repeats``, ``max_iter`` or grid size is a long run, not a
crash, so the fuzzer never asks for one.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lowrankpen import cli
from lowrankpen.fileio import write_dense_matrix, write_triplets

ALLOWED_EXITS = {0, 2, 3, 4}

TINY_CONFIG = {
    "model": "completion",
    "m1": 5,
    "m2": 4,
    "r": 1,
    "sigma": 0.1,
    "spectrum_rule": {"kind": "all_above_nu", "margin": 1.0},
    "n_grid": [30],
    "penalties": [{"family": "scad", "b": 41.0}],
    "repeats": 1,
    "base_seed": 3,
    "lambda_rule": "standard",
    "solver": {"max_iter": 30, "tol": 1e-6, "warm_start": "nuclear"},
}


def key_paths(doc, prefix=()):
    """Every key and list index of ``doc``, containers included."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


CONFIG_PATHS = list(key_paths(TINY_CONFIG))

MIXED_CONFIG = {
    **{key: value for key, value in TINY_CONFIG.items() if key != "n_grid"},
    "r": 2,
    "spectrum_rule": {"kind": "mixed", "r1": 1, "r2": 1, "low_value": 0.05},
    "N_grid": [1.5, 2.0],
}
MIXED_PATHS = [p for p in key_paths(MIXED_CONFIG) if p[0] in ("spectrum_rule", "N_grid")]

# n = 8 < r^2 = 9: the oracle system is singular on every draw
UNDERDETERMINED_CONFIG = {**TINY_CONFIG, "r": 3, "n_grid": [8]}
UNDERDETERMINED_PATHS = [p for p in key_paths(UNDERDETERMINED_CONFIG) if p[0] in ("r", "n_grid")]

# valid words of other branches sit among the odd values, so a draw can also
# switch the model, rule, family or warm start
WORDS = ["", "x", "sensing", "mixed", "oracle", "nuclear", "mcp", "zero"]
ODD_VALUES = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, None, True, False, [], [1], {}, 0, 0.0, -1, -2.5, 0.5]
        + WORDS
    ),
    st.integers(-3, 12),
    st.floats(-10.0, 10.0),
    st.text(max_size=3),
    st.lists(st.integers(-2, 12), max_size=2),
)


def exit_code(argv) -> int:
    # argparse reports a malformed flag by raising SystemExit(2)
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def simulate_mutated(base, path, value) -> None:
    cfg = copy.deepcopy(base)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "config.json"
        config.write_text(json.dumps(cfg))
        out = Path(work) / "out"
        code = exit_code(["simulate", config, "--out-dir", out, "--jobs", 1])
        assert code == 0 or not out.exists(), f"{path} = {value!r} left {out} behind"
    assert code in ALLOWED_EXITS, f"{path} = {value!r} exited {code}"


@pytest.mark.parametrize(
    "base", [TINY_CONFIG, MIXED_CONFIG, UNDERDETERMINED_CONFIG],
    ids=["tiny", "mixed", "underdetermined"],
)
def test_unmutated_config_runs(base, tmp_path):
    # a base config the reader rejects would make every mutation exit 2 at
    # that rejection, so the fuzzer would pass while testing nothing
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base))
    out = tmp_path / "out"
    assert exit_code(["simulate", config, "--out-dir", out, "--jobs", 1]) == 0
    if base is UNDERDETERMINED_CONFIG:
        header, row = (out / "results.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["oracle_match"] == ""


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: ".".join(map(str, p)))
@settings(max_examples=20)
@given(value=ODD_VALUES)
def test_simulate_config_mutation_exit_code(path, value):
    simulate_mutated(TINY_CONFIG, path, value)


@pytest.mark.parametrize("path", MIXED_PATHS, ids=lambda p: ".".join(map(str, p)))
@settings(max_examples=20)
@given(value=ODD_VALUES)
def test_mixed_rescaled_config_mutation_exit_code(path, value):
    simulate_mutated(MIXED_CONFIG, path, value)


@pytest.mark.parametrize("path", UNDERDETERMINED_PATHS, ids=lambda p: ".".join(map(str, p)))
@settings(max_examples=20)
@given(value=ODD_VALUES)
def test_underdetermined_config_mutation_exit_code(path, value):
    simulate_mutated(UNDERDETERMINED_CONFIG, path, value)


COMMON_FLAGS = [
    "--penalty", "--lambda", "--b", "--sigma", "--max-iter", "--tol", "--warm-start",
    "--m1", "--m2",
]
FLAGS = [
    ("simulate", "--jobs"),
    *[("fit", flag) for flag in ["--format", *COMMON_FLAGS]],
    *[("evaluate", flag) for flag in ["--holdout-fraction", "--seed", *COMMON_FLAGS]],
]
# one value each flag accepts
VALID_FLAG_VALUES = {
    "--jobs": "1", "--format": "triplets", "--holdout-fraction": "0.5", "--seed": "1",
    "--penalty": "mcp", "--lambda": "0.1", "--b": "41", "--sigma": "0.2", "--max-iter": "30",
    "--tol": "1e-6", "--warm-start": "nuclear", "--m1": "5", "--m2": "4",
}
ODD_FLAG_VALUES = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "null", "true", "[1]", "0", "-1", "2.5", "-2.5", "1e-300",
         "--", "scad", "dense", "triplets"]
        + WORDS
    ),
    st.integers(-3, 12).map(str),
    st.floats(-10.0, 10.0).map(repr),
    st.text(alphabet="0123456789.-+einfa", max_size=4),
)


TINY_MATRIX = [[0.5 * j - 0.3 * k for k in range(4)] for j in range(5)]
TINY_TRIPLETS = [[j, k, x] for j, row in enumerate(TINY_MATRIX) for k, x in enumerate(row)]


@pytest.mark.parametrize("command,flag", FLAGS, ids=lambda x: x)
def test_fuzzed_flag_parses(command, flag):
    # a flag the CLI lacks exits 2 in argparse, which ALLOWED_EXITS accepts,
    # so the fuzzer would pass on it while testing nothing
    head = [command, "t.csv", "o"]
    if command == "simulate":
        head = [command, "c.json", "--out-dir", "o"]
    cli.build_parser().parse_args([*head, f"{flag}={VALID_FLAG_VALUES[flag]}"])


@pytest.mark.parametrize("command,flag", FLAGS, ids=lambda x: x)
@settings(max_examples=20)
@given(value=ODD_FLAG_VALUES)
def test_command_flag_exit_code(command, flag, value):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if command == "simulate":
            config = work / "config.json"
            config.write_text(json.dumps(TINY_CONFIG))
            argv = [command, config, "--out-dir", work / "out"]
        else:
            src = work / "t.csv"
            write_triplets(src, TINY_TRIPLETS)
            argv = [command, src, work / "out", "--sigma=0.2", "--max-iter=30"]
        code = exit_code([*argv, f"{flag}={value}"])
    assert code in ALLOWED_EXITS, f"{command} {flag}={value!r} exited {code}"


VALUE_TOKENS = [
    "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "", "x", "0",
    # spellings that int() or float() accept and a vectorised parser may not
    "+1", " 1 ", "1_0", "\u0661", "9223372036854775808", "1.0", "-1", "#1", "1e400",
]


def reject_constant(name):
    raise ValueError(f"{name} in JSON output")


@pytest.mark.parametrize("command,layout", [("fit", "triplets"), ("fit", "dense"),
                                            ("evaluate", "triplets")])
@pytest.mark.parametrize("token", VALUE_TOKENS)
@settings(max_examples=8)
@given(cell=st.integers(0, len(TINY_TRIPLETS) - 1), field=st.integers(0, 2))
def test_file_value_exit_code(command, layout, token, cell, field):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        src = work / "in.csv"
        if layout == "dense":
            write_dense_matrix(src, TINY_MATRIX)
            row, col = divmod(cell, 4)
        else:
            write_triplets(src, TINY_TRIPLETS)
            row, col = cell + 1, field  # past the header
        lines = src.read_text().splitlines()
        fields = lines[row].split(",")
        fields[col] = token
        lines[row] = ",".join(fields)
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = work / "out"
        code = exit_code([command, src, out, "--sigma=0.2", "--max-iter=30"])
        assert code in ALLOWED_EXITS, f"{command} {layout} cell {cell} = {token!r} exited {code}"
        if code == 0:
            doc = Path(f"{out}.fit.json") if command == "fit" else out
            json.loads(doc.read_text(), parse_constant=reject_constant)
