"""The public API: every exported name resolves."""

import ast
from pathlib import Path

import pytest

import chainopt
from chainopt import cli, harness, markov, optimizer, problems


@pytest.mark.parametrize("module", [markov, problems, optimizer, harness, cli],
                         ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_imports_exist():
    # every name chainopt/__init__.py imports from a submodule is exported
    tree = ast.parse(Path(chainopt.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(getattr(chainopt, module), name) or not hasattr(chainopt, name)
    ]
    assert missing == []
