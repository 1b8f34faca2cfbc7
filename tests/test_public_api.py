"""The package's public surface: no caller-less names, few private names read across
modules, the README example runs, and the README and ``slicepoly --help`` list the same
exit codes.

The census parses ``src/slicepoly/*.py`` (not ``__init__.py``, which re-exports
everything) and collects the public top-level functions and classes, the public
methods of public classes and the UPPERCASE module constants.  A name counts as
called when its identifier appears as a ``Name`` load, an ``Attribute`` or an
import alias in one of those modules, or in ``perfbench/*.py``, where a word
inside a string constant counts as well, because the tracer names the functions
it wraps in strings.  Docstrings never count.  The uncalled names must equal
``ALLOWED``, so a stale entry fails the census as surely as a new dead name.

Methods match by bare name, so a dead method that shares its name with a live
one goes unseen; the census never flags a live name.

The package root exports its names lazily: each loads its home module on first
access, and a cold ``slicepoly`` CLI process imports only what ``apply`` runs.

The second census collects, over the same modules, each private name that one
module takes from a sibling: ``from .m import _x``, or ``m._x`` where ``m`` came
from ``from . import m``.  A class attribute such as ``Quaternion._new`` does not
count.  The ``(user, owner, name)`` triples must equal ``PRIVATE_ALLOWED``.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slicepoly"

#: public names with no caller in the package or the benchmark, each with its reason
ALLOWED = {
    "Quaternion.approx_eq": "the tests' float comparison",
    "QPoly.coeff": "read by tests/helpers.v_peel_decompose, the oracle of decompose",
    "Q_POLY": "the square-and-multiply reference for expand_q_power",
    "U1": "used by the tests; the README example imports it",
    "U2": "used by the tests",
}

#: (user, owner, private name) read across modules, each with its reason
PRIVATE_ALLOWED = {
    ("kernels", "quat", "_hamilton"): "the one tuple Hamilton product",
    ("qpoly", "quat", "_hamilton"): "the one tuple Hamilton product",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defined(tree: ast.Module) -> dict[str, str]:
    """Reported name -> the identifier a caller would use."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            names[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        names[f"{node.name}.{item.name}"] = item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and _public(t.id) and t.id.isupper():
                    names[t.id] = t.id
    return names


def _docstrings(tree: ast.Module) -> set[int]:
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return {id(s.body[0].value) for s in scopes
            if s.body and isinstance(s.body[0], ast.Expr)
            and isinstance(s.body[0].value, ast.Constant) and isinstance(s.body[0].value.value, str)}


def _used(tree: ast.Module, strings: bool) -> set[str]:
    used = set()
    docs = _docstrings(tree) if strings else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            used.update(_WORD.findall(node.value))
    return used


def uncalled_names() -> set[str]:
    defined, used = {}, set()
    for path in sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(_defined(tree))
        used |= _used(tree, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _used(ast.parse(path.read_text(), str(path)), strings=True)
    return {name for name, ident in defined.items() if ident not in used}


def test_every_public_name_has_a_caller():
    uncalled = uncalled_names()
    assert uncalled == set(ALLOWED), (
        f"caller-less: {sorted(uncalled - set(ALLOWED))}; "
        f"stale allowlist entries: {sorted(set(ALLOWED) - uncalled)}")


def cross_module_private_names() -> set[tuple[str, str, str]]:
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    modules = {p.stem for p in paths}
    found = set()
    for path in paths:
        user, siblings = path.stem, {}
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        siblings[alias.asname or alias.name] = alias.name
                    elif node.module in modules and not _public(alias.name):
                        found.add((user, node.module, alias.name))
        for node in nodes:
            if (isinstance(node, ast.Attribute) and not _public(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in siblings):
                found.add((user, siblings[node.value.id], node.attr))
    return found


def test_private_names_stay_home():
    found = cross_module_private_names()
    assert found == set(PRIVATE_ALLOWED), (
        f"unlisted: {sorted(found - set(PRIVATE_ALLOWED))}; "
        f"stale allowlist entries: {sorted(set(PRIVATE_ALLOWED) - found)}")


def _exit_codes(text: str) -> list[str]:
    """The codes listed in the paragraph that starts at "Exit codes:", in order."""
    paragraph = text.split("Exit codes:", 1)[1].split("\n\n", 1)[0].replace("`", "")
    return re.findall(r"(?<![\w.])(\d)(?=\s)", paragraph)


def test_exit_codes_documented_alike():
    from slicepoly import cli

    readme = (ROOT / "README.md").read_text()
    assert _exit_codes(cli.__doc__) == _exit_codes(readme) == ["0", "1", "2", "3"]


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


#: the package-root exports, by home module, as the eager ``__init__`` listed them
ROOT_EXPORTS = {
    "errors": ["DegreeCapExceeded", "NotDivisible", "NotFueterRegular", "NotInClass",
               "NotOrthogonal", "OnRealAxis", "OnSingularSphere", "OrderMismatch",
               "OutsideContour", "SlicePolyError"],
    "quat": ["E1", "E2", "E3", "ONE", "Quaternion", "U1", "U2", "UnitImaginary", "ZERO", "quatf"],
    "qpoly": ["QPoly", "c_n", "cauchy_fueter", "conjugate_cauchy_fueter", "divide_by_vecnorm_sq",
              "expand_q_power", "expand_qbar_power", "global_g", "global_v", "is_poly_fueter",
              "build_poly_fueter", "laplacian", "partial", "tau_n"],
    "slicefn": ["RightSlicePolyFn", "SlicePolyFn", "SliceRegularSeries", "appell_apply",
                "appell_check", "decompose", "right_cr_derivative", "slice_cr_derivative"],
    "kernels": ["delta_s_inv", "f_j", "s_inv"],
    "quad": ["CirclePath", "canonical_perp", "cauchy_theorem_residual", "fueter_integral",
             "fueter_integral_explicit", "poly_cauchy_eval", "restrict",
             "unit_independence_check"],
}


def test_root_exports_resolve_to_their_home_objects():
    import slicepoly

    star: dict = {}
    exec("from slicepoly import *", star)
    listed = dir(slicepoly)
    for home, names in ROOT_EXPORTS.items():
        module = importlib.import_module(f"slicepoly.{home}")
        for name in names:
            assert getattr(slicepoly, name) is getattr(module, name), name
            assert name in listed and star[name] is getattr(module, name), name
    assert sorted(slicepoly.__all__) == sorted(n for names in ROOT_EXPORTS.values() for n in names)
    assert slicepoly.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        slicepoly.no_such_name


#: runs without ``site``, which may load stdlib modules of its own: imports the CLI,
#: runs ``apply V``, prints the loaded modules
_COLD_START = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import slicepoly.cli
imported = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = slicepoly.cli.main(["apply", "V", '{"order": 2, "components": [[0, 1], [1]]}'])
print(json.dumps([code, imported, sorted(sys.modules)]))
"""

CLI_MODULES = {"slicepoly",
               *(f"slicepoly.{m}" for m in ("errors", "quat", "qpoly", "slicefn", "cli"))}


def test_cold_cli_loads_only_what_apply_runs():
    out = subprocess.run([sys.executable, "-S", "-c", _COLD_START, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    code, imported, after_apply = json.loads(out)
    assert code == 0
    for loaded in (imported, after_apply):
        assert {m for m in loaded if m.partition(".")[0] == "slicepoly"} == CLI_MODULES
        assert not {"dataclasses", "inspect"} & set(loaded)
