"""The README's examples run as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_corrected(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    [example] = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "corrected\n"
