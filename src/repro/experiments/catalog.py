"""The experiment registries: name to module, in presentation order.

Importing this module imports every experiment module;
:mod:`repro.experiments` resolves ``ALL_EXPERIMENTS`` and
``EXTENSION_EXPERIMENTS`` from here on first use, so code that only
needs the names reads :data:`~repro.experiments.PAPER_EXPERIMENTS` and
:data:`~repro.experiments.EXTENSION_STUDIES` instead.
"""

from __future__ import annotations

import importlib
from types import ModuleType

from repro.experiments import EXTENSION_STUDIES, PAPER_EXPERIMENTS


def _modules(names: tuple[str, ...]) -> dict[str, ModuleType]:
    return {
        name: importlib.import_module(f"repro.experiments.{name}")
        for name in names
    }


ALL_EXPERIMENTS = _modules(PAPER_EXPERIMENTS)
EXTENSION_EXPERIMENTS = _modules(EXTENSION_STUDIES)
