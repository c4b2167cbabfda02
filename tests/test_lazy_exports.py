"""The packages that resolve heavy names lazily still export them all.

``repro``, ``repro.core``, ``repro.trace`` and ``repro.workloads`` bind
their cheap names eagerly and the rest through PEP 562 ``__getattr__``
(:mod:`repro._lazy`).  Every ``__all__`` name must resolve to the very
object its defining module binds, ``dir()`` must list it, an unknown
name must still raise ``AttributeError`` and star imports must work —
in a fresh interpreter too, where nothing has been resolved yet.
"""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.trace.replay

PACKAGES = ("repro", "repro.core", "repro.trace", "repro.workloads")

#: exported constants the package itself defines
OWN_CONSTANTS = {
    "repro": {"__version__"},
    "repro.workloads": {"ALL_WORKLOADS", "PARALLEL_WORKLOADS",
                        "SEQUENTIAL_WORKLOADS"},
}


def _definers(package, name):
    """Modules under ``repro`` that bind ``name`` at module level,
    other than the package itself."""
    return [module for module_name, module in sorted(sys.modules.items())
            if module is not None and module_name != package
            and module_name.startswith("repro.")
            and name in vars(module)]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            home = importlib.import_module(value.__module__)
            assert getattr(home, value.__name__) is value, name
        elif name not in OWN_CONSTANTS.get(package, ()):
            assert any(vars(module)[name] is value
                       for module in _definers(package, name)), name


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_exports_and_unknown_names_raise(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pkg, "no_such_name")
    assert not hasattr(pkg, "no_such_name")


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name), name


def test_trace_replay_is_the_function():
    assert repro.trace.replay is sys.modules["repro.trace.replay"].replay
    assert callable(repro.trace.replay)


def test_engine_selection_is_shared_with_columnar():
    columnar = importlib.import_module("repro.trace.columnar")
    replay_module = sys.modules["repro.trace.replay"]
    for name in ("ENV_ENGINE", "ENGINES", "selected_engine"):
        assert getattr(columnar, name) is getattr(replay_module, name)


def test_fresh_interpreter_resolves_lazily():
    """Nothing heavy loads on import; every name resolves on access."""
    script = """
import importlib, sys
packages = %r
for package in packages:
    importlib.import_module(package)
heavy = ["numpy", "repro.core.costs", "repro.core.compress",
         "repro.core.resilience", "repro.core.snapshot",
         "repro.trace.columnar", "repro.trace.oracle",
         "repro.workloads.compiled", "repro.activation", "repro.runtime"]
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, loaded
for package in packages:
    namespace = {}
    exec("from %%s import *" %% package, namespace)
    pkg = sys.modules[package]
    assert all(namespace[name] is getattr(pkg, name)
               for name in pkg.__all__), package
assert sys.modules["repro.trace"].replay is \\
    sys.modules["repro.trace.replay"].replay
print("ok")
""" % (PACKAGES,)
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
