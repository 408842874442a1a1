"""Source hygiene: every module of the package uses each name it imports,
every name of the public API has a caller, one private numpy name is read, in
one place, stored operator sets are read as the stacks they are, and a family
is differentiated and range-checked in one place each.

``__init__.py`` is exempt from the first rule, since its imports are the
public API.  The checks read the source with the standard library's ``ast``;
a name counts as used when it appears anywhere as a bare name, annotations
included.  An export has a caller when a module of the package uses it as a
name or attribute, or when it is a word of the acceptance suite, of
``scripts/*.py`` or of ``bench/*.py``; its own unit tests do not count.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qest"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CONSUMERS = [ROOT / "tests" / "test_acceptance.py",
             *sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("bench/*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_guard_sees_unused_names():
    source = "import math\nimport numpy as np\nfrom .linalg import dagger, eigh\nnp.eye(eigh)\n"
    assert unused_imports(source) == ["dagger", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def exports_without_caller(init_source: str, modules: list[str], consumers: list[str]) -> list[str]:
    exported = [a.asname or a.name for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for a in node.names]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for source in modules for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}
    used.update(re.findall(r"\w+", "\n".join(consumers)))
    return [name for name in exported if name not in used]


def test_the_caller_guard_sees_uncalled_exports():
    init = "from .a import f, g, h, k\nfrom .b import C\n"
    # a definition is not a use, nor is a longer word that contains the name
    modules = ["def g():\n    return f()\n", "class C:\n    pass\n"]
    assert exports_without_caller(init, modules, ["x.k(1)  # h_2"]) == ["g", "h", "C"]


def test_every_export_has_a_caller():
    read = [p.read_text(encoding="utf-8") for p in (*MODULES, *CONSUMERS)]
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert exports_without_caller(init, read[:len(MODULES)], read[len(MODULES):]) == []


def private_numpy_names(source: str) -> list[str]:
    """numpy names with an underscore part that a source imports or reads as
    ``np.`` or ``numpy.`` attributes, each cut after its first such part."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            dotted += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts, node = [node.attr, *parts], node.value
            if isinstance(node, ast.Name):
                dotted.append(".".join(["numpy" if node.id == "np" else node.id, *parts]))
    found = set()
    for name in dotted:
        parts = name.split(".")
        private = [i for i, part in enumerate(parts) if part.startswith("_")]
        if parts[0] == "numpy" and private:
            found.add(".".join(parts[:private[0] + 1]))
    return sorted(found)


def test_the_private_name_guard_sees_every_form():
    source = ("import numpy._core\nfrom numpy.linalg import _umath_linalg, eigh\n"
              "from numpy.lib._index_tricks_impl import r_\nx = np.linalg._linalg.eigh\n"
              "y = numpy._NoValue\nz = np.linalg.eigh\n")
    assert private_numpy_names(source) == [
        "numpy._NoValue", "numpy._core", "numpy.lib._index_tricks_impl",
        "numpy.linalg._linalg", "numpy.linalg._umath_linalg"]


def test_one_private_numpy_name_in_one_place():
    found = {p.name: private_numpy_names(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {
        "linalg.py": ["numpy.linalg._umath_linalg"]}
    docstring = ast.get_docstring(ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8")))
    assert "_umath_linalg" in docstring


#: the operator sets a channel stores, as read-only stacks, and the converters
#: that ``channels.operator_stack`` replaced
STORED_SETS = {"kraus", "noise_ops", "first_order"}
RETIRED = {"as_noise_ops", "_qubit_stack"}


def stored_set_conversions(source: str) -> list[str]:
    """``np.array``, ``np.asarray``, ``np.concatenate`` and ``np.stack`` calls on a
    stored operator set, and definitions of a retired converter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in RETIRED:
            found.append(f"def {node.name}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
              and node.func.attr in ("array", "asarray", "concatenate", "stack") and node.args
              and isinstance(node.args[0], ast.Attribute) and node.args[0].attr in STORED_SETS):
            found.append(f"{node.func.value.id}.{node.func.attr}(.{node.args[0].attr})")
    return sorted(found)


def test_the_stored_set_guard_sees_every_form():
    source = ("a = np.array(ch.kraus)\nb = np.concatenate(fam.evaluate(t).kraus)\n"
              "c = np.stack(ln.noise_ops, axis=0)\nd = numpy.asarray(x.first_order)\n"
              "e = np.asarray(ch.kraus.real)\nf = np.array([ch.kraus])\n"
              "g = ch.kraus.reshape(-1, 2)\nh = np.asarray(ops)\n"
              "def as_noise_ops(ops):\n    pass\ndef _qubit_stack(ops):\n    pass\n")
    assert stored_set_conversions(source) == [
        "def _qubit_stack", "def as_noise_ops", "np.array(.kraus)", "np.concatenate(.kraus)",
        "np.stack(.noise_ops)", "numpy.asarray(.first_order)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stored_sets_are_read_as_stored(path):
    assert stored_set_conversions(path.read_text(encoding="utf-8")) == []


def richardson_callers(source: str) -> list[str]:
    """The functions that call ``richardson_derivative``, as ``name`` or
    ``Class.method`` of the top level (a nested def or lambda counts as its
    outermost one), or ``<module>``."""
    found = set()

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and (scope is None or in_class):
                inner = child.name if scope is None else f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "richardson_derivative":
                    found.add(scope or "<module>")
            visit(child, inner, isinstance(child, ast.ClassDef) and scope is None)

    visit(ast.parse(source), None, False)
    return sorted(found)


def test_the_differentiation_guard_sees_every_caller():
    source = ("class QfiEvaluator:\n    def __init__(self):\n        def g(t):\n"
              "            return richardson_derivative(f, t, 1e-3)\n"
              "    def qfi(self):\n        return estimation.richardson_derivative(f, 0.0, 1e-3)\n"
              "def log_hamiltonian(fam, theta):\n"
              "    return (lambda t: richardson_derivative(fam.evaluate, t, 1e-5))(theta)\n"
              "d = richardson_derivative(f, 1.0, 1e-5)\nrule = richardson_derivative\n")
    assert richardson_callers(source) == [
        "<module>", "QfiEvaluator.__init__", "QfiEvaluator.qfi", "log_hamiltonian"]


def test_each_family_kind_is_differentiated_in_one_place():
    # a build-only family's transfer matrix, and a unitary family's dU/dtheta
    callers = {p.name: richardson_callers(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: found for name, found in callers.items() if found} == {
        "estimation.py": ["QfiEvaluator.__init__"], "unitary.py": ["unitary_channel_family"]}


def test_the_validity_interval_is_checked_in_one_place():
    holders = [p.name for p in sorted(PACKAGE.glob("*.py"))
               if "outside validity interval" in p.read_text(encoding="utf-8")]
    assert holders == ["channels.py"]
