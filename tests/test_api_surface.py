"""Every exported name, every public module-level function and class, and every public member of an
exported class must have a caller in the program: none exists only for its own unit test.

A name counts as used when src/dpwavelab/*.py other than __init__.py, or
perfbench/*.py, reads it as a name or an attribute. perfbench is read as
source and never imported or written.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import dpwavelab

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted((ROOT / "src" / "dpwavelab").glob("*.py")) if p.name != "__init__.py"]
SOURCES = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


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


def _public_members() -> list[str]:
    """Class.member for every public method, property and dataclass field of each class in dpwavelab.__all__."""
    members = []
    for name in dpwavelab.__all__:
        cls = getattr(dpwavelab, name)
        if not inspect.isclass(cls):
            continue
        names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        names |= set(vars(cls))
        members += [f"{name}.{m}" for m in sorted(names) if not m.startswith("_")]
    return members


def test_members_found():
    members = _public_members()
    assert "SolitonProfile.evaluate_with_slope" in members and "Scenario.grid_n" in members
    assert not any(m.split(".")[1].startswith("_") for m in members)


@pytest.mark.parametrize("member", _public_members())
def test_member_has_a_caller(member):
    assert member.split(".")[1] in USED, f"{member} is public, but nothing in src/dpwavelab or perfbench reads it"


def _public_definitions() -> list[str]:
    """module.name for every public function and class defined at the top level of src/dpwavelab/*.py."""
    return [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_definitions_found():
    definitions = _public_definitions()
    assert {"linearized.assemble_L", "modulation.ProfileCache", "cli.main"} <= set(definitions)


@pytest.mark.parametrize("definition", _public_definitions())
def test_definition_has_a_caller(definition):
    name = definition.split(".")[1]
    assert name in USED, f"{definition} is public, but nothing in src/dpwavelab or perfbench reads it"
