"""API guards.

* No tolerance knobs: every tolerance is an entry of the one table
  ``linalg.TOL``, so no function or method of the library modules takes
  one as a defaulted parameter.
* No private entry points: a module reaches another module only through
  its public names, so what one layer offers the others is its public API.
* No public API without a caller: every name the package re-exports is
  used by the library, the benchmark or the tools.
* No dead private code: every private function or class of the package
  is used somewhere in it besides its own definition.
* One spectral-location policy: only ``linalg`` decides whether a matrix
  is singular from its smallest singular value (``EigenResult``'s
  ``singular`` and ``nearly_singular``); the other modules read those
  properties.
* One tolerance table: no float literal of magnitude at most 1e-3 or at
  least 1e6 appears in the package outside the definition of the table
  ``linalg.Tol`` and the Pade coefficients ``PADE_13`` and ``THETA_13``.
"""

import ast
import inspect
from pathlib import Path

from nisynth import certify, cli, errors, linalg, statespace, structure, synth

MODULES = (linalg, statespace, structure, certify, synth)
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nisynth"


def _functions(module):
    """Every function and method defined in ``module``, private ones too."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # class/static
                if inspect.isfunction(fn):
                    yield f"{module.__name__}.{name}.{attr}", fn


def test_no_defaulted_tolerance_parameters():
    hits = [f"{where}({param.name})"
            for module in MODULES for where, fn in _functions(module)
            for param in inspect.signature(fn).parameters.values()
            if param.default is not param.empty
            and ("tol" in param.name or "floor" in param.name)]
    assert hits == [], f"{len(hits)} defaulted tolerance parameters: {hits}"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_across_modules():
    library = MODULES + (cli, errors)
    short = {module.__name__.rsplit(".", 1)[1] for module in library}
    hits = []
    for module in library:
        own = module.__name__.rsplit(".", 1)[1]
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Attribute) and _private(node.attr) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in short - {own}:
                hits.append(f"{own}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level:
                hits += [f"{own}: from .{node.module or ''} import {a.name}"
                         for a in node.names if _private(a.name)]
    assert hits == [], f"private names used across modules: {hits}"


def _references(path):
    """Every name a source file loads, reads as an attribute or imports;
    a ``def`` or ``class`` statement is not a reference to its name."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
            refs.add((node.module or "").rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            refs.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return refs


def test_every_export_has_a_caller():
    init = PACKAGE / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [path for path in sorted(PACKAGE.glob("*.py")) if path != init]
    callers += sorted((ROOT / "bench").glob("*.py"))
    callers += sorted((ROOT / "tools").glob("*.py"))
    used = set().union(*map(_references, callers))
    assert sorted(exported - used) == [], "re-exported names without a caller"


def test_every_private_definition_has_a_use():
    paths = sorted(PACKAGE.glob("*.py"))
    used = set().union(*map(_references, paths))
    defined = {node.name for path in paths
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and _private(node.name)}
    assert sorted(defined - used) == [], "private definitions without a use"


def test_one_spectral_location_policy():
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "linalg.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Attribute) and n.attr == "smin"
                for n in ast.walk(node))]
    assert hits == [], f"singularity rules outside linalg: {hits}"


#: definitions whose literals are data, not tolerances
TABLE = {"Tol", "PADE_13", "THETA_13"}


def _tolerance_literals(tree):
    """Lines of ``tree`` holding a nonzero float literal of magnitude at
    most 1e-3 or at least 1e6, outside the definitions named in
    ``TABLE``."""
    exempt = set()
    for node in ast.walk(tree):
        names = [node.name] if isinstance(node, ast.ClassDef) else \
            [t.id for t in getattr(node, "targets", ())
             if isinstance(t, ast.Name)]
        if TABLE.intersection(names):
            exempt.update(map(id, ast.walk(node)))
    return sorted({node.lineno for node in ast.walk(tree)
                   if id(node) not in exempt
                   and isinstance(node, ast.Constant)
                   and type(node.value) is float and node.value
                   and not 1e-3 < abs(node.value) < 1e6})


def test_one_tolerance_table():
    hits = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for line in _tolerance_literals(ast.parse(path.read_text()))]
    assert hits == [], f"tolerance literals outside linalg.Tol on " \
        f"{len(hits)} lines: {hits}"
