"""Start-up cost: the CLI parser and the store-hit server load no
simulator layer.

Every ``repro`` package ``__init__`` is a lazy export table resolved by
:func:`repro._util.lazy.lazy_exports`, and ``repro.cli`` imports
simulator modules only inside the command handlers that use them.
These tests hold both: building the parser, and ``--version``, must
leave numpy out of the process, and every exported name must still
resolve — from a fresh interpreter, to the object its defining module
holds.

The server keeps the same rule for everything but a miss: building a
:class:`~repro.service.app.ServiceApp`, answering ``/healthz`` and
``/metrics``, and answering ``/v1/evaluate`` from the result store all
leave numpy out; the first miss loads the compute path.

The export tables also must not keep a module alive on their own:
every library module is imported by another ``src`` module, an
example, a tool or a benchmark (or is an experiment in the catalog),
unless :data:`UNREACHED_KEPT` names it with its reason.
"""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.workloads.params import GENERATOR_VERSION

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _run(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
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
        # Importing a submodule binds its name in the package, so a name
        # defined in a submodule of the same name would be shadowed.
        assert target != f".{name}"
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


# -- every library module has a caller -----------------------------------

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent

#: Library modules that no ``src`` module, example, tool or benchmark
#: imports, each with the reason it stays.  Anything else unreached is
#: a parallel path: delete it rather than add it here.
UNREACHED_KEPT = {
    "repro.caches.inclusion": (
        "checks the paper's Baer & Wang inclusion methodology claim; "
        "waits for the claims ledger"
    ),
    "repro.tlb.mach_tlb": (
        "wrapped by benchmarks/e2e/launch.py until the "
        "instrumentation-stream benchmark revision"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> set[str]:
    """The ``repro`` modules a file's import statements load.

    A name imported from a package counts for the module its export
    table routes it to; the table's own rows count for nothing.
    """
    own = _module_name(path) if path.is_relative_to(SRC) else ""
    package = own if path.name == "__init__.py" else own.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            if not base.startswith("repro"):
                continue
            found.add(base)
            exports = getattr(importlib.import_module(base), "_EXPORTS", {})
            for alias in node.names:
                target = exports.get(alias.name, f".{alias.name}")
                if target is None:
                    target = f".{alias.name}"
                found.add(f"{base}{target}")
    return found - {own}


def test_every_library_module_is_reached():
    from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS

    callers = [
        *SRC.rglob("*.py"),
        *(ROOT / "examples").glob("*.py"),
        *(ROOT / "tools").glob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
    ]
    reached = set().union(*(_imports(path) for path in callers))
    reached.update(
        module.__name__
        for module in {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}.values()
    )
    library = {
        _module_name(path)
        for path in SRC.rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }
    unreached = library - reached
    assert unreached - UNREACHED_KEPT.keys() == set()
    # A kept module that gains a caller leaves the list.
    assert UNREACHED_KEPT.keys() <= unreached


# -- the store-hit server ----------------------------------------------

#: Trace length of the warmed store.
SERVE_INSTRUCTIONS = 5_000

#: Warmed points: one configuration and mechanism over one suite.
WARM_SUITE = "ibs-mach3"
WARM_CONFIG = "economy"
WARM_MECHANISM = "demand"

#: Prelude of every server subprocess: an app over the store at argv[1],
#: and ``ask(method, path, body)``, which sends one request through the
#: app's real connection handler and returns ``(status, body bytes)``.
_SERVER = """
import asyncio, json, sys
from repro.service.app import ServiceApp
from repro.service.store import ResultStore

app = ServiceApp(store=ResultStore(sys.argv[1]))

async def _ask(method, path, body):
    server = await asyncio.start_server(app.handle_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\\r\\nConnection: close\\r\\n"
        f"Content-Length: {len(data)}\\r\\n\\r\\n".encode() + data
    )
    response = await reader.read()
    writer.close()
    server.close()
    await server.wait_closed()
    head, _, payload = response.partition(b"\\r\\n\\r\\n")
    return int(head.split()[1]), payload

def ask(method, path, body=None):
    return asyncio.run(_ask(method, path, body))

def numpy_loaded():
    return "numpy" in sys.modules
"""


def _evaluate_body(workload: str, mechanism: str = WARM_MECHANISM) -> dict:
    return {
        "workload": workload,
        "os": "mach3",
        "config": WARM_CONFIG,
        "mechanism": mechanism,
        "instructions": SERVE_INSTRUCTIONS,
        "seed": 0,
        "wait": True,
    }


@pytest.fixture(scope="module")
def warmed_store(tmp_path_factory):
    """A result store warmed with one suite at 5k instructions."""
    from repro.experiments.common import ExperimentSettings
    from repro.service.store import ResultStore
    from repro.service.warm import warm_plan, warm_store

    root = tmp_path_factory.mktemp("lean") / "results"
    plan = warm_plan(
        suite=WARM_SUITE,
        configs=(WARM_CONFIG,),
        mechanisms=(WARM_MECHANISM,),
        settings=ExperimentSettings(n_instructions=SERVE_INSTRUCTIONS),
    )
    warm_store(ResultStore(root), plan)
    return str(root)


def test_service_app_imports_no_numpy(warmed_store):
    out = _run(_SERVER + "print(numpy_loaded())\n", warmed_store)
    assert out.strip() == "False"


def test_store_hits_and_probes_import_no_numpy(warmed_store):
    body = _evaluate_body("gcc")
    out = _run(
        _SERVER
        + "import json\n"
        + "answers = {}\n"
        + "answers['healthz'] = ask('GET', '/healthz')\n"
        + "answers['metrics'] = ask('GET', '/metrics')\n"
        + "answers['metrics_json'] = ask('GET', '/metrics?format=json')\n"
        + f"answers['hit'] = ask('POST', '/v1/evaluate', {body!r})\n"
        + "print(json.dumps({name: [status, payload.decode()]"
        + " for name, (status, payload) in answers.items()}))\n"
        + "print(numpy_loaded())\n",
        warmed_store,
    )
    answers_line, numpy_line = out.strip().splitlines()
    answers = json.loads(answers_line)
    assert numpy_line == "False"
    assert {status for status, _ in answers.values()} == {200}
    health = json.loads(answers["healthz"][1])
    assert health["status"] == "ok"
    assert health["store"]["entries"] == 8
    # Neither cache module loaded, so both report empty.
    assert "repro_trace_cache_entries 0" in answers["metrics"][1]
    assert "repro_line_order_cache_entries 0" in answers["metrics"][1]
    gauges = json.loads(answers["metrics_json"][1])["gauges"]
    assert gauges["trace_cache_entries"][0]["value"] == 0
    job = json.loads(answers["hit"][1])
    assert job["status"] == "done"
    assert job["source"] == "store"


def test_first_miss_loads_the_compute_path(warmed_store):
    from repro.core.config import MemorySystemConfig
    from repro.core.study import evaluate

    # "prefetch" was not warmed, so this request misses.
    body = _evaluate_body("gcc", mechanism="prefetch")
    out = _run(
        _SERVER
        + f"status, payload = ask('POST', '/v1/evaluate', {body!r})\n"
        + "job = json.loads(payload)\n"
        + "assert status == 200 and job['source'] == 'executed', payload\n"
        + "print(json.dumps(job['result']['metrics']))\n"
        + "print(numpy_loaded())\n",
        warmed_store,
    )
    metrics_line, numpy_line = out.strip().splitlines()
    assert numpy_line == "True"
    result = evaluate(
        "gcc", "mach3", MemorySystemConfig.economy(), "prefetch",
        n_instructions=SERVE_INSTRUCTIONS, seed=0, engine="reference",
    )
    assert json.loads(metrics_line) == {
        "mpi": result.l1.mpi,
        "l2_mpi": result.l2_mpi,
        "cpi_l1": result.cpi_l1,
        "cpi_l2": result.cpi_l2,
        "cpi_instr": result.cpi_instr,
    }


def test_cache_stats_skip_a_module_still_importing(monkeypatch):
    """While a miss imports the compute layers on an executor thread,
    ``repro.workloads.registry`` and ``repro.caches.vectorized`` sit in
    ``sys.modules`` before their stats functions are defined; a probe in
    that window reports zeros instead of failing."""
    import types

    from repro.service.app import _loaded_cache_stats

    for name in ("repro.workloads.registry", "repro.caches.vectorized"):
        monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
    assert _loaded_cache_stats() == (
        {"entries": 0, "resident_bytes": 0},
        {"entries": 0, "bytes": 0, "evictions": 0},
    )
    sys.modules["repro.workloads.registry"].trace_cache_stats = (
        lambda: {"entries": 3, "resident_bytes": 7}
    )
    assert _loaded_cache_stats()[0] == {"entries": 3, "resident_bytes": 7}
