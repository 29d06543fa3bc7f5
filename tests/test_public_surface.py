"""The package's public surface: what __all__ lists exists, and the root adds nothing of its own."""

import importlib
import pkgutil
import types

import stablegp

# Every submodule but the command line, which is run rather than imported.
LIBRARY = [
    importlib.import_module(f"stablegp.{info.name}")
    for info in pkgutil.iter_modules(stablegp.__path__)
    if info.name != "cli"
]


def test_every_listed_name_resolves():
    assert LIBRARY
    for module in [stablegp, *LIBRARY]:
        listed = module.__all__
        assert len(set(listed)) == len(listed), module.__name__
        missing = [name for name in listed if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_root_reexports_only_names_the_submodules_list():
    owners = {}
    for module in LIBRARY:
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    for name in stablegp.__all__:
        assert name in owners, name
        assert any(getattr(stablegp, name) is getattr(module, name) for module in owners[name]), name
    # and every public name the root binds is listed, apart from its submodules
    public = {
        name for name, value in vars(stablegp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(stablegp.__all__)
