"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_tour"})
    rows = capsys.readouterr().out.splitlines()
    assert [int(row.split()[0]) for row in rows] == list(range(1, 9))
