"""Run the doctests embedded in the library's docstrings.

Public-facing examples in docstrings must stay executable; this module
makes them part of the suite without relying on pytest's --doctest-modules
flag (so plain ``pytest tests/`` covers them).

Modules are resolved by name via importlib because some packages re-export
functions that shadow their defining submodule (``repro.tokenize.soundex``
the module vs ``soundex`` the function).
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.analysis.plan_verifier",
    "repro.analysis.sql_check",
    "repro.bench.reporting",
    "repro.core.ssjoin",
    "repro.joins.cooccurrence",
    "repro.joins.cosine_join",
    "repro.joins.direct",
    "repro.joins.edit_join",
    "repro.joins.soundex_join",
    "repro.relational.aggregates",
    "repro.relational.groupwise",
    "repro.relational.sql.compiler",
    "repro.relational.sql.lexer",
    "repro.relational.sql.parser",
    "repro.relational.sql.unparser",
    "repro.core.incremental",
    "repro.sim.cosine",
    "repro.sim.edit",
    "repro.sim.ges",
    "repro.sim.hamming",
    "repro.sim.jaccard",
    "repro.tokenize.elements",
    "repro.tokenize.qgrams",
    "repro.tokenize.sets",
    "repro.tokenize.soundex",
    "repro.tokenize.words",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {name}"


def test_doctests_actually_exist():
    """Guard against the suite silently passing on doc-less modules."""
    total = sum(
        doctest.testmod(importlib.import_module(n), verbose=False).attempted
        for n in MODULE_NAMES
    )
    assert total >= 30
