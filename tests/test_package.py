"""Package-level contracts: each module's public names, and what loading
the package imports."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
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


# One small command from each CLI group, both Perron methods among them.
SMALL_COMMANDS = [
    ["thresholds", "eval", "beta_star", "--r", "2", "--alpha", "0.25"],
    ["counts", "normalized", "--r", "2", "--k", "6", "--i", "2"],
    ["bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "2"],
    ["spectral", "lambda", "--r", "2", "--ell", "5", "--method", "psi"],
    ["spectral", "lambda", "--r", "2", "--ell", "5", "--method", "dlambda"],
    ["gnp", "terminal", "--n", "30", "--r", "2", "--alpha", "1.0",
     "--trials", "2", "--seed", "1"],
]


def test_loading_the_package_imports_no_scipy():
    # the library runs on numpy and mpmath alone; mpmath is imported where
    # extended precision is needed (beta_star, the Lambda(i) sweep), and
    # the process pool where trials run on --workers > 1, so loading the
    # CLI alone must not pay for any of them
    src = str(Path(bootperc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import contextlib, io, json, sys, bootperc.cli\n"
        "def loaded(*names):\n"
        "    return sorted(m for m in sys.modules"
        " if m in names or m.startswith(tuple(n + '.' for n in names)))\n"
        "print(loaded('scipy', 'mpmath', 'multiprocessing',"
        " 'concurrent.futures.process'))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = bootperc.cli.main(argv)\n"
        "    if rc != 0:\n"
        "        sys.exit(f'{argv}: exit {rc}')\n"
        "print(loaded('scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(SMALL_COMMANDS)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


def _third_party_imports(src: Path) -> set:
    """Top-level names of the packages outside the standard library that
    the modules under src import, at any depth of the module."""
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"bootperc"}


def test_dependencies_are_exactly_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    pkg = Path(bootperc.__file__).resolve().parent
    project = tomllib.loads((pkg.parents[1] / "pyproject.toml").read_text())
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in project["project"]["dependencies"]
    }
    assert declared == _third_party_imports(pkg) == {"numpy", "mpmath"}


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


def _output_uses(path):
    """(top-level function or None, what) for each call of print or open, or
    of a method named open, write_text or write_bytes, and each use of
    sys.stdout or sys.stderr, in the file at path."""
    found = []
    for top in ast.parse(path.read_text()).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("print", "open"):
                    found.append((where, func.id))
                elif isinstance(func, ast.Attribute) and func.attr in (
                        "open", "write_text", "write_bytes"):
                    found.append((where, func.attr))
            elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.append((where, f"sys.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                found += [(where, f"sys.{a.name}") for a in node.names
                          if a.name in ("stdout", "stderr")]
    return found


def test_only_cli_output_opens_a_command_output():
    # every command writes through cli._output, the one place that opens
    # the --out file or takes stdout; main's error line goes to stderr
    src = Path(bootperc.__file__).parent
    found = sorted({
        (path.name, where, what)
        for path in src.glob("*.py")
        for where, what in _output_uses(path)
    })
    assert found == [
        ("cli.py", "_output", "open"),
        ("cli.py", "_output", "sys.stdout"),
        ("cli.py", "main", "print"),
        ("cli.py", "main", "sys.stderr"),
    ]


def test_the_output_scan_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import sys\n"
        "from sys import stdout\n"
        "print(1)\n"
        "def f(path):\n"
        "    with open(path, 'w') as fp:\n"
        "        fp.write('')\n"
        "    path.write_text('')\n"
        "    io.open(path).close()\n"
        "class C:\n"
        "    def g(self):\n"
        "        sys.stderr.write(sys.stdout.name)\n"
    )
    assert Counter(_output_uses(bad)) == Counter([
        (None, "sys.stdout"), (None, "print"), ("f", "open"), ("f", "write_text"),
        ("f", "open"), (None, "sys.stderr"), (None, "sys.stdout"),
    ])


def _bench_spans():
    """bench/spans.py, loaded from its file: the names its tracer wraps."""
    path = Path(bootperc.__file__).resolve().parents[2] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_bench_tracer_wraps_resolves():
    # the tracer looks these up by name when it installs, so a rename in
    # the library would leave a per-layer metric reading 0
    spans = _bench_spans()
    missing = []
    for mod_name, attr, *_ in spans._FUNCTIONS:
        if not callable(getattr(importlib.import_module(mod_name), attr, None)):
            missing.append(f"{mod_name}.{attr}")
    for kind, table in ((None, spans._METHODS), (classmethod, spans._CLASSMETHODS)):
        for mod_name, cls_name, attr, *_ in table:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            found = vars(cls).get(attr) if isinstance(cls, type) else None
            if not (callable(found) if kind is None else isinstance(found, kind)):
                missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert spans._FUNCTIONS and spans._METHODS and spans._CLASSMETHODS
    assert missing == []
