"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists its public names by defining submodule and
gets module-level ``__getattr__``/``__dir__`` hooks that import that
submodule the first time one of its names is read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.obs.store": ("RunStore", "current_git_rev"),
    })

``from repro.obs import RunStore`` keeps working, but ``import
repro.cli`` or ``from repro.core.pipeline import Pipeline`` no longer
loads every sibling module of the packages it passes through.

Only use this where no exported name equals a submodule name: importing
such a submodule rebinds the package attribute to the module
(``repro.opt`` exports ``balance`` from ``repro.opt.balance`` and
therefore stays eager).
"""

import importlib
import sys


def lazy_exports(package, exports):
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule path to the names it provides.  A
    resolved name is stored on the package, so each costs one import
    and later reads are plain attribute lookups.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
