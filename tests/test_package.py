"""Package-level contracts: each module's public names, and what loading
the package imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bootperc
from bootperc import (
    branching,
    cli,
    counting,
    engine,
    experiments,
    spectral,
    thresholds,
)

MODULES = [bootperc, branching, cli, counting, engine, experiments, spectral,
           thresholds]


def _public_defs(module):
    """Names of the module's top-level def and class statements that do
    not start with an underscore."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_names(module):
    listed = module.__all__
    assert len(listed) == len(set(listed)), "repeated name in __all__"
    assert [n for n in listed if not hasattr(module, n)] == []
    assert sorted(_public_defs(module) - set(listed)) == []


def test_loading_the_package_imports_no_scipy():
    # scipy is imported where it is used (primitivity tests), mpmath where
    # extended precision is needed (beta_star, the Lambda(i) sweep), and
    # the process pool where trials run on --workers > 1; loading the CLI
    # alone must not pay for any of them
    src = str(Path(bootperc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import sys, bootperc.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m in ('scipy', 'mpmath') or m.startswith(('scipy.', 'mpmath.'))"
        " or m in ('multiprocessing', 'concurrent.futures.process')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _broad_handlers_and_asserts(path):
    """(line, what) for each assert statement, bare except and except
    Exception (alone or in a tuple) in the file at path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None:
                found.append((node.lineno, "bare except"))
            elif any(isinstance(n, ast.Name) and n.id == "Exception" for n in names):
                found.append((node.lineno, "except Exception"))
    return found


def test_library_has_no_asserts_or_broad_excepts():
    # asserts vanish under python -O, and broad handlers hide bugs as
    # outcomes: the library raises named errors and catches only those
    src = Path(bootperc.__file__).parent
    found = {
        path.name: hits
        for path in sorted(src.glob("*.py"))
        if (hits := _broad_handlers_and_asserts(path))
    }
    assert found == {}


def test_the_library_scan_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "assert 1\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception) as exc:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert _broad_handlers_and_asserts(bad) == [
        (1, "assert"), (4, "bare except"), (8, "except Exception"),
        (12, "except Exception"),
    ]
