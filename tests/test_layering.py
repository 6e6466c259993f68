"""Layering guard: the program builds no subgroup, lists G only where it must,
and the series counts its orbits.

Every sieve quantity depends on a subgroup only through its type, so
``groups`` counts the sieve types and hands out histograms and types
(``element_orders``, ``sieve_types``, ``sieve_terms``); the oracle decides
generation by the maximal subgroups that hold every image, one bit each.
No module of the package defines, imports or reads a subgroup form; those
live in the tests (``lattice_bfs``) as the reference.
The oracle reads its disc exponents from element orders, and unit actions
count their orbits, so only ``groups``, which holds the listing, and
``invariants``, whose automorphism twists and element-keyed tables need it,
list the elements of G.
The series' orbits are the counted ``cyclotomic_orbits``, so it names none
of the enumerated orbit forms of ``invariants`` either.
The precision has one source, MALLE_LAB_PRECISION: no function takes a
``dps`` parameter, and only ``lvalues.working_precision`` and the CLI's
manifest (``cli._emit``) call ``precision_digits``.
Within the package Dirichlet characters serve the L-values alone: only
``oracle``, which defines them, ``lvalues``, which evaluates them, and the
package's ``__init__`` name the character type, its pools or the trivial
character."""

import ast
from pathlib import Path

import pytest

import malle_lab

SUBGROUP_NAMES = {
    "Subgroup",
    "full_subgroup",
    "trivial_subgroup",
    "span",
    "frattini",
    "moebius_subgroup",
}
ELEMENT_LISTING_NAMES = {"elements", "_elements"}
LISTING_MODULES = {"groups", "invariants"}
ENUMERATED_ORBIT_NAMES = {
    "GaloisActionSpec",
    "WeightFn",
    "orbits",
    "nonidentity_orbits",
    "weight_spectrum",
    "a_invariant",
    "b_d",
}

CHARACTER_NAMES = {"DirichletCharacter", "characters_up_to", "TRIVIAL_CHARACTER"}
CHARACTER_MODULES = {"oracle", "lvalues", "__init__"}


def _uses(source: str, names: set[str]) -> list[str]:
    """Names from ``names`` that the source defines, imports or reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
            found.append(node.name)
    return found


PRECISION_READERS = {("lvalues", "working_precision"), ("cli", "_emit")}


def _dps_parameters(source: str) -> list[str]:
    """The functions of the source that take a parameter named dps."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if any(a is not None and a.arg == "dps" for a in params):
                found.append(getattr(node, "name", "<lambda>"))
    return found


def _precision_calls(source: str) -> list[str]:
    """The innermost enclosing function of each call of precision_digits
    ("<module>" at module level)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "precision_digits":
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


PACKAGE = Path(malle_lab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _source(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text()


@pytest.mark.parametrize("module", MODULES)
def test_no_subgroup_outside_groups(module):
    assert _uses(_source(module), SUBGROUP_NAMES) == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - LISTING_MODULES))
def test_no_element_listing_outside_groups_and_invariants(module):
    assert _uses(_source(module), ELEMENT_LISTING_NAMES) == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - CHARACTER_MODULES))
def test_characters_only_in_oracle_and_lvalues(module):
    assert _uses(_source(module), CHARACTER_NAMES) == []


def test_series_counts_its_orbits():
    assert _uses(_source("series"), ENUMERATED_ORBIT_NAMES) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_dps_parameter(module):
    assert _dps_parameters(_source(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_precision_read_in_one_place(module):
    callers = {(module, owner) for owner in _precision_calls(_source(module))}
    assert callers <= PRECISION_READERS


def test_precision_readers_exist():
    assert {(m, o) for m in ("lvalues", "cli") for o in _precision_calls(_source(m))} == PRECISION_READERS


def test_guard_finds_each_form():
    source = (
        "from .groups import Subgroup, element_orders\n"
        "from . import groups\n"
        "H = groups.full_subgroup(G)\n"
        "K = groups.span(G, ())\n"
        "T = groups.trivial_subgroup(G)\n"
        "def frattini(G):\n"
        "    return moebius_subgroup(H, G)\n"
    )
    assert sorted(_uses(source, SUBGROUP_NAMES)) == sorted(SUBGROUP_NAMES)
    source = (
        "from .groups import _elements\n"
        "duals = G.elements()\n"
    )
    assert sorted(_uses(source, ELEMENT_LISTING_NAMES)) == sorted(ELEMENT_LISTING_NAMES)
    source = (
        "from .invariants import GaloisActionSpec, WeightFn, b_d, cyclotomic_orbits\n"
        "from .invariants import nonidentity_orbits as enumerated\n"
        "from . import invariants\n"
        "x = invariants.orbits(G, A, W), invariants.weight_spectrum(G, A, W)\n"
        "y = invariants.a_invariant(G, A, W)\n"
    )
    assert sorted(_uses(source, ENUMERATED_ORBIT_NAMES)) == sorted(ENUMERATED_ORBIT_NAMES)
    source = (
        "from .oracle import DirichletCharacter as Character, count_surjections\n"
        "from . import oracle\n"
        "pool = oracle.characters_up_to(2, 100)\n"
        "chi = TRIVIAL_CHARACTER\n"
    )
    assert sorted(_uses(source, CHARACTER_NAMES)) == sorted(CHARACTER_NAMES)
    source = (
        "def residue_main_term(G, p_max, dps=None): ...\n"
        "def value(m, x, *, dps): ...\n"
        "def plain(G, digits): ...\n"
        "key = lambda dps: dps\n"
    )
    assert _dps_parameters(source) == ["residue_main_term", "value", "<lambda>"]
    source = (
        "from . import numerics\n"
        "DIGITS = precision_digits()\n"
        "def residue_main_term(G, p_max):\n"
        "    def rows():\n"
        "        return numerics.precision_digits() + 10\n"
        "    return precision_digits\n"
    )
    assert _precision_calls(source) == ["<module>", "rows"]
