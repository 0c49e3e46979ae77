"""The public API: every exported name resolves."""

import types

import pytest

import chainopt
from chainopt import cli, harness, markov, optimizer, problems

PACKAGE_MODULES = [markov, problems, optimizer, harness]


@pytest.mark.parametrize("module", PACKAGE_MODULES + [cli], ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=lambda mod: mod.__name__)
def test_package_imports_match_all(module):
    # the package republishes each name of the module's __all__ as the
    # module's own object
    differ = [name for name in module.__all__
              if getattr(chainopt, name, None) is not getattr(module, name)]
    assert differ == []


def test_package_exports_exactly_the_disjoint_lists():
    # a wildcard import lets a later module shadow an earlier one's name,
    # so no name may be in two lists; and the package adds no public name
    # of its own
    lists = [set(module.__all__) for module in PACKAGE_MODULES]
    union = set().union(*lists)
    assert sum(map(len, lists)) == len(union)
    public = {
        name for name, value in vars(chainopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == union
