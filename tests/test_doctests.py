"""The examples in the package's docstrings run and hold: pytest collects
only ``tests/``, so without this test no docstring example would run."""

import doctest
import importlib
import pkgutil

import ioselect


def test_every_module_doctest_passes():
    names = ["ioselect"] + [f"ioselect.{info.name}" for info in pkgutil.iter_modules(ioselect.__path__)]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0
