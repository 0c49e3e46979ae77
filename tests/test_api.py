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


def package_imports():
    """(module, name) for every name chainopt/__init__.py imports from a submodule."""
    tree = ast.parse(Path(chainopt.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_package_imports_exist():
    # every name chainopt/__init__.py imports from a submodule is exported
    imported = package_imports()
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(getattr(chainopt, module), name) or not hasattr(chainopt, name)
    ]
    assert missing == []


@pytest.mark.parametrize("module", [markov, problems, optimizer, harness],
                         ids=lambda mod: mod.__name__)
def test_package_imports_match_all(module):
    # the package re-exports exactly each module's public list, so the
    # two lists cannot drift apart
    short = module.__name__.rpartition(".")[2]
    imported = {name for source, name in package_imports() if source == short}
    assert imported == set(module.__all__)
