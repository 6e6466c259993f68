"""Layering guard: the series and the invariants see subgroups only as histograms.

Every sieve quantity depends on a subgroup only through its element-order
histogram, so ``series`` and ``invariants`` take histograms from ``groups``
(``element_orders``, ``sieve_types``) and never build or name a subgroup.
"""

import ast
from pathlib import Path

import pytest

import malle_lab

SUBGROUP_NAMES = {"Subgroup", "full_subgroup", "span"}


def _subgroup_uses(source: str) -> list[str]:
    """Names from SUBGROUP_NAMES that the source imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] in SUBGROUP_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in SUBGROUP_NAMES:
            found.append(node.attr)
    return found


@pytest.mark.parametrize("module", ["series", "invariants"])
def test_no_subgroup_outside_groups(module):
    source = (Path(malle_lab.__file__).parent / f"{module}.py").read_text()
    assert _subgroup_uses(source) == []


def test_guard_finds_each_form():
    source = (
        "from .groups import Subgroup, element_orders\n"
        "from . import groups\n"
        "H = groups.full_subgroup(G)\n"
        "K = groups.span(G, ())\n"
    )
    assert _subgroup_uses(source) == ["Subgroup", "full_subgroup", "span"]
