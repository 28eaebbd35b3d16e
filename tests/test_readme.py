"""The README's Library example runs as written: removing or renaming a
public name cannot silently break the documented API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "True True\n"
