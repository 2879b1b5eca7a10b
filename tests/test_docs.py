"""The README's Python examples run, and every exported name exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gensel

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
)
MODULES = sorted(m.name for m in pkgutil.iter_modules(gensel.__path__))


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    """Each fenced ``python`` block runs as written and prints its results."""
    code = compile(PYTHON_BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gensel.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
