"""The docstring examples of every flowhom module, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import flowhom

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(flowhom.__path__, prefix="flowhom.")
)


@pytest.mark.parametrize("name", ["flowhom", *MODULES])
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_smith_normal_form_examples_are_collected():
    # [2, 4], Z (+) Z/6 and the hollow triangle live in these docstrings
    assert doctest.testmod(importlib.import_module("flowhom.homology")).attempted >= 5
