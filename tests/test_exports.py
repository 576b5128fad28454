import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def _perfbench_module(name):
    """``perfbench/<name>.py`` loaded by path; nothing is added to sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a loaded smallmass module, and the methods the
    benchmark's counters patch, as {(owner, attr): object}."""
    from concurrent.futures import ProcessPoolExecutor

    from smallmass.core import ParticleEnsemble

    found = {(name, key): value for name, mod in list(sys.modules.items())
             if name.split(".")[0] == "smallmass" and mod is not None
             for key, value in vars(mod).items()}
    for owner, attr in ((ProcessPoolExecutor, "__init__"), (ProcessPoolExecutor, "submit"),
                        (ParticleEnsemble, "__post_init__")):
        found[owner, attr] = vars(owner)[attr]
    return found


def test_every_traced_name_resolves():
    # The benchmark traces each layer by wrapping smallmass names from
    # outside; a name it wraps that is deleted or renamed here leaves that
    # layer untraced, which the benchmark records but no test of the
    # package would see.
    import smallmass.harness  # noqa: F401  (loads every module the spans wrap)

    tracer, child = _perfbench_module("tracer"), _perfbench_module("child")
    before = _bindings()
    inst = tracer.Instruments()
    try:
        inst.count_pools()
        tracer.install_spans(inst)
        inst.stamp_first_call("smallmass.harness", child.SIM_ENTRY)
        assert inst.missing == []
        assert _bindings() != before
    finally:
        inst.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
