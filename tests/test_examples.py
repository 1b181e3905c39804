"""Smoke tests for the example scripts.

Full runs take tens of seconds each (they use realistic trace lengths),
so tests compile and import every example and execute only the fastest
end to end.
"""

import importlib.util
import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    for expected in (
        "quickstart.py",
        "code_bloat_study.py",
        "fetch_optimization.py",
        "os_variability.py",
        "trace_workshop.py",
        "beyond_the_paper.py",
        "custom_workload.py",
    ):
        assert expected in names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_main(path):
    source = path.read_text()
    assert "def main() -> None:" in source
    assert '__name__ == "__main__"' in source
    assert source.startswith('"""')  # every example is documented


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    """Importing runs every top-level import (``main()`` is guarded),
    so an example that names a deleted module fails here."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_quickstart_runs_end_to_end(tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert "CPIinstr" in result.stdout
