"""Layering guard: the series sees subgroups and orbits only as histograms.

Every sieve quantity depends on a subgroup only through its element-order
histogram, so ``series`` and ``invariants`` take histograms from ``groups``
(``element_orders``, ``sieve_types``) and never build or name a subgroup.
The series' orbits are the counted ``cyclotomic_orbits``, so it names none
of the enumerated orbit forms of ``invariants`` either.
"""

import ast
from pathlib import Path

import pytest

import malle_lab

SUBGROUP_NAMES = {"Subgroup", "full_subgroup", "span"}
ENUMERATED_ORBIT_NAMES = {
    "GaloisActionSpec",
    "WeightFn",
    "orbits",
    "nonidentity_orbits",
    "weight_spectrum",
    "a_invariant",
    "b_d",
}


def _uses(source: str, names: set[str]) -> list[str]:
    """Names from ``names`` that the source imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
    return found


def _source(module: str) -> str:
    return (Path(malle_lab.__file__).parent / f"{module}.py").read_text()


@pytest.mark.parametrize("module", ["series", "invariants"])
def test_no_subgroup_outside_groups(module):
    assert _uses(_source(module), SUBGROUP_NAMES) == []


def test_series_counts_its_orbits():
    assert _uses(_source("series"), ENUMERATED_ORBIT_NAMES) == []


def test_guard_finds_each_form():
    source = (
        "from .groups import Subgroup, element_orders\n"
        "from . import groups\n"
        "H = groups.full_subgroup(G)\n"
        "K = groups.span(G, ())\n"
    )
    assert _uses(source, SUBGROUP_NAMES) == ["Subgroup", "full_subgroup", "span"]
    source = (
        "from .invariants import GaloisActionSpec, WeightFn, b_d, cyclotomic_orbits\n"
        "from .invariants import nonidentity_orbits as enumerated\n"
        "from . import invariants\n"
        "x = invariants.orbits(G, A, W), invariants.weight_spectrum(G, A, W)\n"
        "y = invariants.a_invariant(G, A, W)\n"
    )
    assert sorted(_uses(source, ENUMERATED_ORBIT_NAMES)) == sorted(ENUMERATED_ORBIT_NAMES)
