"""Start-up cost: the CLI parser loads no simulator layer.

Every ``repro`` package ``__init__`` is a lazy export table resolved by
:func:`repro._util.lazy.lazy_exports`, and ``repro.cli`` imports
simulator modules only inside the command handlers that use them.
These tests hold both: building the parser, and ``--version``, must
leave numpy out of the process, and every exported name must still
resolve — from a fresh interpreter, to the object its defining module
holds.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.workloads.params import GENERATOR_VERSION

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _run(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_parser_imports_no_numpy():
    out = _run(
        "import sys\n"
        "import repro.cli\n"
        "repro.cli.build_parser()\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))\n"
    )
    assert out.strip() == "[]"


def test_version_imports_no_numpy():
    # ``--version`` reports GENERATOR_VERSION, which lives in the
    # numpy-free ``workloads.params``.
    out = _run(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--version']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))\n"
    )
    lines = out.strip().splitlines()
    assert f"generator v{GENERATOR_VERSION}" in lines[0]
    assert lines[-1] == "[]"


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_from_a_fresh_interpreter(package):
    # A cold process catches import cycles that an already-warm test
    # process would hide.
    out = _run(
        f"import {package} as pkg\n"
        "missing = [n for n in pkg.__all__ if getattr(pkg, n, None) is None]\n"
        "print(missing)\n"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_their_defining_modules_objects(package):
    pkg = importlib.import_module(package)
    assert pkg.__getattr__.__qualname__ == "lazy_exports.<locals>.__getattr__"
    listed = dir(pkg)
    for name in pkg.__all__:
        assert name in listed
        value = getattr(pkg, name)
        target = pkg._EXPORTS.get(name, "")
        if target is None:
            assert value is importlib.import_module(f"{package}.{name}")
            continue
        if not target:  # defined in the package itself
            assert value is vars(pkg)[name]
            continue
        module = importlib.import_module(target, package)
        assert value is getattr(module, name)
        if getattr(value, "__name__", None) == name:
            # Classes and functions: the table names where they are
            # defined, not a module that re-exports them.
            assert value.__module__ == module.__name__


def test_unknown_name_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.core.nope  # noqa: B018


def test_resolved_names_are_cached_in_the_package():
    out = _run(
        "import repro.plan as plan\n"
        "before = 'run_report' in vars(plan)\n"
        "plan.run_report\n"
        "print(before, 'run_report' in vars(plan))\n"
    )
    assert out.split() == ["False", "True"]


def test_subpackages_load_on_attribute_access():
    out = _run(
        "import sys, repro\n"
        "before = 'repro.tlb' in sys.modules\n"
        "print(before, repro.tlb is sys.modules['repro.tlb'])\n"
    )
    assert out.split() == ["False", "True"]


def test_name_shared_with_its_submodule_stays_the_export():
    # Importing repro.core.sweep binds the package attribute ``sweep``
    # to the submodule; the export table must keep the function.
    import repro.core
    from repro.core.sweep import sweep

    assert repro.core.sweep is sweep
