"""The package's public surface: every `__all__` entry exists, and README's example runs."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import powplay

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_all_entry_is_importable():
    names = ["powplay"] + [f"powplay.{m.name}" for m in pkgutil.iter_modules(powplay.__path__)]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        if not hasattr(module, "__all__"):
            continue
        namespace = {}
        exec(f"from {name} import *", namespace)  # a stale entry raises AttributeError here
        assert set(module.__all__) <= namespace.keys(), name
        checked += 1
    assert checked >= 8


def test_readme_quick_taste_prints_its_quoted_values():
    block = re.search(r"Quick taste:\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    quoted = re.findall(r"# (\d\.\d+)\.\.\.", block)  # the values the README promises
    assert quoted == ["0.3410", "0.3780"]
    lines = out.getvalue().splitlines()
    assert len(lines) == len(quoted)
    assert all(line.startswith(want) for line, want in zip(lines, quoted)), lines
