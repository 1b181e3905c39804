"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` is an export table: each public
name mapped to the module, relative to the package, that defines it.
:func:`lazy_exports` turns the table into the package's module-level
``__getattr__`` and ``__dir__``, so a name's defining module is imported
on first access instead of when the package is.  ``from repro import
evaluate`` imports the study layer; ``import repro.cli`` imports no
numpy and no simulator layer.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str | None]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``exports``.

    ``exports`` maps each public name to its defining module, relative
    to ``package`` (``".config"``), or to ``None`` to export the
    submodule of that name itself.  A resolved name is cached in the
    package's namespace, so only the first access goes through
    ``__getattr__``.

    A name defined in a submodule of the same name (``sweep`` from
    ``.sweep``) is bound at once: importing that submodule binds the
    package attribute to the module, which would otherwise shadow the
    export for good.
    """
    namespace = vars(sys.modules[package])

    def resolve(name: str):
        target = exports[name]
        if target is None:
            return importlib.import_module(f".{name}", package)
        return getattr(importlib.import_module(target, package), name)

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value = resolve(name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    for name, target in exports.items():
        if target == f".{name}":
            namespace[name] = resolve(name)
    return __getattr__, __dir__
