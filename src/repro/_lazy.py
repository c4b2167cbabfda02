"""Lazy package exports (PEP 562).

A sweep cell subprocess imports the package it runs from and then only
the handful of modules its one cell executes.  Package ``__init__``
modules therefore bind their cheap names eagerly and resolve the heavy
ones — the ones that pull in NumPy, the compiler stack or modules a
cell never touches — on first attribute access::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.core.costs": ("CostModel", "speedup"),
    })

``from package import Name``, ``package.Name`` and ``from package
import *`` all behave as if the name were bound eagerly; the first
access imports the defining module and caches the object in the
package namespace.
"""

import importlib


def lazy_exports(namespace, modules):
    """PEP 562 ``(__getattr__, __dir__)`` for one package.

    ``namespace`` is the package's ``globals()``; ``modules`` maps each
    defining module to the names it exports through the package.
    """
    owner = {name: module for module, names in modules.items()
             for name in names}
    package = namespace["__name__"]

    def __getattr__(name):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
