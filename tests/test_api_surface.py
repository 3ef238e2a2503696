"""Every exported name must have a caller in the program: no public function exists only for its own unit test.

A name counts as used when src/dpwavelab/*.py other than __init__.py, or
perfbench/*.py, reads it as a name or an attribute. perfbench is read as
source and never imported or written.
"""

import ast
from pathlib import Path

import pytest

import dpwavelab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for p in sorted((ROOT / "src" / "dpwavelab").glob("*.py")) if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "perfbench").glob("*.py"))


def _used_names() -> set[str]:
    used = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


USED = _used_names()


def test_sources_found():
    assert any(p.parent.name == "perfbench" for p in SOURCES)
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("name", dpwavelab.__all__)
def test_export_has_a_caller(name):
    assert name in USED, f"dpwavelab.{name} is exported, but nothing in src/dpwavelab or perfbench uses it"
