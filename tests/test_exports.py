"""``phasestack.__all__`` is the package's public surface: every name in it
resolves, and it lists exactly the public names that ``__init__`` binds,
other than the submodules."""

import types

import phasestack


def test_every_exported_name_resolves():
    assert [name for name in phasestack.__all__ if not hasattr(phasestack, name)] == []


def test_all_lists_exactly_the_public_bindings():
    bound = {
        name
        for name, value in vars(phasestack).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(phasestack.__all__)) == len(phasestack.__all__)
    assert set(phasestack.__all__) == bound
