"""The README's library example runs as written, its ``simulate`` config
parses and runs, and every package name the README quotes exists, so a
renamed or removed public name or config key fails here rather than in the
docs."""

import importlib
import json
import re
from pathlib import Path

import lowrankpen
from lowrankpen import cli
from lowrankpen.simlab import TrialSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rank_hat, err = capsys.readouterr().out.split()
    assert int(rank_hat) == 3 and float(err) < 0.5


def readme_simulate_config() -> dict:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return json.loads(blocks[0])


def test_readme_simulate_config_parses():
    spec = cli.parse_run_config(readme_simulate_config())
    assert isinstance(spec, TrialSpec) and spec.model == "completion"


def test_readme_simulate_config_runs(tmp_path):
    # one repeat of each of the 4 N_grid x 2 penalty cells
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**readme_simulate_config(), "repeats": 1}))
    out = tmp_path / "out"
    assert cli.main(["simulate", str(config), "--out-dir", str(out), "--jobs", "1"]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 1 + 8


def _resolve(path: str):
    """Import the longest module prefix of a dotted path, then getattr the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def test_readme_names_resolve():
    quoted = set(re.findall(r"`([^`\n]+)`", README.read_text()))
    paths = sorted(q for q in quoted if re.fullmatch(r"lowrankpen(\.\w+)+", q))
    camel = sorted(q for q in quoted if re.fullmatch(r"[A-Z][a-z0-9]+[A-Z]\w*(\.\w+)*", q))
    assert "lowrankpen.solver" in paths and "SolverConfig" in camel
    for path in paths:
        _resolve(path)
    missing = [name for name in camel if name.split(".")[0] not in lowrankpen.__all__]
    assert not missing, f"README names not exported by lowrankpen: {missing}"
    for name in camel:
        _resolve("lowrankpen." + name)
