"""The names the benchmark's tracer wraps must still resolve, so that a refactor cannot break a traced run.

perfbench/tracing.py is read as source and never imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

from dpwavelab.modulation import ProfileCache

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of tracing.TARGETS."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TARGETS list in {TRACING}")


def test_targets_listed():
    assert len(_targets()) >= 20


@pytest.mark.parametrize("module, attribute", _targets())
def test_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_profile_cache_get_resolves():
    # install() also wraps ProfileCache.get, found through dpwavelab.modulation
    assert "ProfileCache" in TRACING.read_text()
    assert callable(ProfileCache.get)
