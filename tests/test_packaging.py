"""The declared dependencies admit no version the package cannot run on."""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_numpy_lower_bound_has_vecdot():
    # operators.quadratic_form and theory.probe_rsc call np.vecdot, new in numpy 2.0
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    bounds = [re.fullmatch(r"numpy\s*>=\s*(\d+)\.(\d+)", dep) for dep in deps]
    found = [tuple(map(int, m.groups())) for m in bounds if m]
    assert len(found) == 1 and found[0] >= (2, 0)
