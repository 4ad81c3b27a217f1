"""Every name the benchmark's tracer wraps must exist in the program.

A refactor that moves or renames a traced call otherwise fails only in a
traced benchmark run.
"""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import spans  # noqa: E402


@pytest.mark.parametrize("module_name, path, _span", spans.SITES + spans.COUNTED)
def test_trace_site_resolves(module_name, path, _span):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
