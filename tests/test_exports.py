import importlib
import pkgutil

import smallmass


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition is deleted breaks only
    # `from smallmass.<module> import *`, which nothing else here runs.
    modules = [smallmass] + [importlib.import_module(f"smallmass.{info.name}")
                             for info in pkgutil.iter_modules(smallmass.__path__)]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert "smallmass.noise" in {mod.__name__ for mod, _ in exported}
    missing = [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)]
    assert missing == []
