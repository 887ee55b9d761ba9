"""Import hygiene of the package.

The runtime is stdlib-only: every absolute import under src/tsvar names a
standard-library module.  Every name a module under src/tsvar imports is
used in that module.  A name counts as used when the module reads it
anywhere (annotations included, quoted ones too) or lists it in
``__all__``.  ``__future__`` imports are directives, not names, and are
skipped.

The import boundary: ``import tsvar`` loads no submodule, and a CLI
command loads only the layers it runs.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tsvar"


def _imported(tree):
    """(name, module, line) for every name bound by an import statement.

    ``module`` is the top-level module the name comes from, or None for a
    relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield alias.asname or top, top, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield alias.asname or alias.name, module, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as -> "TimeScale".
            try:
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
            except (SyntaxError, ValueError):
                pass
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, _, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [f"{module} (line {line})" for _, module, line in _imported(tree)
               if module is not None and module not in sys.stdlib_module_names]
    assert not foreign, f"{path.name} imports outside the standard library: {foreign}"


# -- the import boundary: a command loads only the layers it runs ------------

TWO_VARIABLE = {"tsvar.double", "tsvar.counterexamples"}
FIX = "tests/fixtures/"


def _loaded_submodules(*args):
    """tsvar submodules a fresh interpreter imports for ``python -X importtime *args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=SRC.parent.parent,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert "tsvar" in names, "no import trace"
    return {name for name in names if name.startswith("tsvar.")}


@pytest.mark.parametrize("argv", [
    ["integrate", "--scale", FIX + "z6.json", "--fn", "1", "--a", "0", "--b", "3"],
    ["deriv", "--scale", FIX + "hybrid01_2.json", "--fn", "t^3 - t", "--t", "0.5",
     "--format", "json"],
    ["classify", "--scale", FIX + "z6.json", "--t", "2"],
], ids=lambda argv: argv[0])
def test_one_variable_commands_load_no_other_layer(argv):
    loaded = _loaded_submodules("-m", "tsvar.cli", *argv)
    assert not loaded & (TWO_VARIABLE | {"tsvar.variational"}), sorted(loaded)


def test_el_residual_loads_no_two_variable_layer():
    loaded = _loaded_submodules("-m", "tsvar.cli", "el-residual",
                                "--problem", FIX + "prob_v2.json", "--y", "t")
    assert "tsvar.variational" in loaded
    assert not loaded & TWO_VARIABLE, sorted(loaded)


def test_import_tsvar_loads_no_submodule():
    assert _loaded_submodules("-c", "import tsvar") == set()


def test_public_names_resolve():
    import tsvar

    assert set(tsvar._SUBMODULE) == set(tsvar.__all__) - {"__version__"}
    assert set(dir(tsvar)) >= set(tsvar.__all__)
    for name in tsvar.__all__:
        module = tsvar._SUBMODULE.get(name)
        value = getattr(tsvar, name)
        if module is not None:
            assert value is getattr(importlib.import_module(f"tsvar.{module}"), name)
    with pytest.raises(AttributeError):
        tsvar.no_such_name


def test_counterexample_flags_name_every_counterexample():
    from tsvar.cli import _CX_FLAGS
    from tsvar.counterexamples import ALL_COUNTEREXAMPLES

    assert set(_CX_FLAGS) == set(ALL_COUNTEREXAMPLES)
