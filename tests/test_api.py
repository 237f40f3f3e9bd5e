"""The public surface: every exported name resolves, and README's example runs."""

import re
from pathlib import Path

import helmpanel

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    missing = [name for name in helmpanel.__all__ if not hasattr(helmpanel, name)]
    assert missing == []


def test_readme_library_use_runs():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
