"""The examples in the docstrings of every sgdtors module run as stated."""

import doctest
import importlib
import pkgutil

import pytest

import sgdtors

MODULES = sorted(m.name for m in pkgutil.iter_modules(sgdtors.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"sgdtors.{name}"))
    assert result.failed == 0
