import math
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_runs(capsys):
    # the fenced python block under "## Library quick start", run as a user would paste it
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, f"{README}:Library quick start", "exec"), {"__name__": "__readme__"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and math.isfinite(float(printed[0]))
