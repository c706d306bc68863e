"""Run the examples in the docstrings of the library modules and of the
test oracles."""

import doctest

import pytest

import oracles
from hocofin import groups, homalg


@pytest.mark.parametrize("module", [homalg, groups, oracles], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_lattice_invariants_has_examples():
    tests = doctest.DocTestFinder().find(oracles.lattice_invariants)
    assert sum(len(t.examples) for t in tests) > 0
