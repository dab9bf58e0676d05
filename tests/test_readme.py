"""The README's library example runs as written, so a renamed or removed
public name fails here rather than in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rank_hat, err = capsys.readouterr().out.split()
    assert int(rank_hat) == 3 and float(err) < 0.5
