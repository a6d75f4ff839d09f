"""Every module-level import in the package is used by its module, every
public name, definition and method is used by the package itself, not only
by its tests, every option but the named test hooks is set by the package,
and the package stays within its line budget."""
import ast
from pathlib import Path

import pytest

import confweight

MODULES = sorted(Path(confweight.__file__).parent.glob("*.py"))
# the package's line count, which it may not grow past (ROADMAP item 9)
LINE_BUDGET = 2366


def test_the_package_stays_within_its_line_budget():
    lines = sum(len(p.read_text().splitlines()) for p in MODULES)
    assert lines <= LINE_BUDGET, (f"src/confweight has {lines} lines, over the "
                                  f"{LINE_BUDGET}-line budget of ROADMAP item 9")


def _readers(source: str, name: str) -> list[str]:
    """The innermost function around each read of ``name`` in ``source``, as a name, an
    attribute or an import, in walk order; "<module>" for a read outside any function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_disc_nodes_reads_the_block_size():
    # one function cuts a grid into row blocks; every block pass walks it
    reads = [f"{p.stem}.{where}" for p in MODULES
             for where in _readers(p.read_text(), "_BLOCK_NODES")]
    assert reads == ["quadrature.disc_nodes"]


def test_the_walk_sees_every_read_of_a_name():
    src = ("from .q import N\nN = 1\ndef f():\n    return N\nclass K:\n    def m(self):\n"
           "        return q.N + (lambda: N)()\nM = N\n")
    assert _readers(src, "N") == ["<module>", "f", "m", "m", "<module>"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_walk_sees_an_unused_import():
    src = "import os\nfrom x import y as z, w\n__all__ = ['w']\n"
    assert _unused_imports(src) == ["os (line 1)", "z (line 2)"]


def _referenced_names(sources: list[str]) -> set[str]:
    """Names read as an ``ast.Name`` or an attribute anywhere in ``sources``."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package():
    sources = [p.read_text() for p in MODULES if p.name != "__init__.py"]
    assert sorted(set(confweight.__all__) - _referenced_names(sources)) == []


def test_the_walk_sees_an_unreferenced_name():
    src = "from .m import a, b\ndef c():\n    return a + x.b\ndef d():\n    pass\n"
    assert {"a", "b", "c", "d"} - _referenced_names([src]) == {"c", "d"}


def _unreferenced_definitions(sources: list[str]) -> list[str]:
    """Public module-level functions and classes of ``sources`` that none of them reads.

    Methods are checked by ``_unreferenced_methods``.
    """
    defined = {node.name for source in sources for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    return sorted(defined - _referenced_names(sources))


def test_every_public_definition_is_used_by_the_package():
    # a public function only tests call is API kept for its own tests
    sources = [p.read_text() for p in MODULES if p.name != "__init__.py"]
    assert _unreferenced_definitions(sources) == []


def test_the_walk_sees_an_unreferenced_definition():
    src = ("def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n"
           "class K:\n    def method(self):\n        pass\nclass Seen:\n    pass\n"
           "used()\nSeen()\n")
    assert _unreferenced_definitions([src]) == ["K", "unused"]


def _unreferenced_methods(sources: list[str]) -> list[str]:
    """``Class.method`` for each public method of ``sources``' classes that none
    of them reads as an attribute (or a name)."""
    defined = {f"{cls.name}.{node.name}": node.name for source in sources
               for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")}
    used = _referenced_names(sources)
    return sorted(qual for qual, name in defined.items() if name not in used)


# RhsSpec.evaluate is f on the domain itself, the definition that
# tests/test_poisson.py checks RhsSpec.on_disc (f o psi, which the solver uses) against
_REFERENCE_METHODS = {"RhsSpec.evaluate"}


def test_every_public_method_is_used_by_the_package():
    # a method only tests call is API kept for its own tests
    sources = [p.read_text() for p in MODULES if p.name != "__init__.py"]
    assert sorted(set(_unreferenced_methods(sources)) - _REFERENCE_METHODS) == []


def test_the_reference_methods_are_still_unreferenced():
    # an exemption that package code now reads is stale
    sources = [p.read_text() for p in MODULES if p.name != "__init__.py"]
    assert _REFERENCE_METHODS <= set(_unreferenced_methods(sources))


def test_the_walk_sees_an_unreferenced_method():
    src = ("class K:\n    def used(self):\n        pass\n    def unused(self):\n        pass\n"
           "    def _private(self):\n        pass\n    def __call__(self):\n        pass\n"
           "    @property\n    def prop(self):\n        pass\n"
           "def f(k):\n    return k.used() + k.prop\n")
    assert _unreferenced_methods([src]) == ["K.unused"]


def _same_literal(a: ast.expr, b: ast.expr) -> bool:
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except ValueError:
        return False


def _unset_options(package: list[str], callers: list[str]) -> list[str]:
    """``function.parameter`` for each defaulted parameter defined in ``package``
    that no call in ``callers`` passes, by keyword or by position, as anything
    but a literal equal to its default.  Calls are matched to functions by
    name, and ``self``/``cls`` are skipped."""
    options = []
    for source in package:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args.posonlyargs + node.args.args
                first = len(params) - len(node.args.defaults)
                bound = 1 if params and params[0].arg in ("self", "cls") else 0
                options += [(node.name, p.arg, i - bound, d) for i, (p, d) in
                            enumerate(zip(params[first:], node.args.defaults), first)]
                options += [(node.name, p.arg, None, d) for p, d in
                            zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
    passed = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                seen = passed.setdefault(name, [])
                seen += [(k.arg, k.value) for k in node.keywords]
                seen += list(enumerate(node.args))
    return sorted(f"{func}.{arg}" for func, arg, pos, default in options
                  if not any(key in (arg, pos) and not _same_literal(value, default)
                             for key, value in passed.get(func, ())))


# options that only tests set: each lets a test reach a path at a size or
# input the package fixes
_TEST_HOOKS = {
    # the base grid of a ladder, which tests size for its peak-memory bound;
    # the CLI and verify start every ladder from the default DiscGridSpec()
    "brennan_direct.spec",
    # the node set of both norms, which tests shrink to pin their bits;
    # verify sums them on CHECK_SPEC
    "composition_inequality_check.spec",
    # the command line, which tests pass as a list; the console script
    # leaves it None so that argparse reads sys.argv
    "main.argv",
}


def test_only_the_test_hooks_are_options_that_only_tests_set():
    # any other option that no package call sets is a constant in disguise
    package = [p.read_text() for p in MODULES]
    assert set(_unset_options(package, package)) - _TEST_HOOKS == set()


def test_the_test_hooks_are_still_set_only_by_tests():
    # a hook that package code now sets is stale
    package = [p.read_text() for p in MODULES]
    assert _TEST_HOOKS <= set(_unset_options(package, package))


def test_every_option_is_set_by_some_call():
    # a default that no call overrides is a constant in disguise
    package = [p.read_text() for p in MODULES]
    tests = [p.read_text() for p in Path(__file__).parent.glob("*.py")]
    assert _unset_options(package, package + tests) == []


def test_the_walk_sees_an_option_no_call_sets():
    src = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
           "class K:\n    def m(self, x=0, y=0):\n        pass\n"
           "f(0, 5)\nK().m(1)\nf(0, d=4)\n")
    assert _unset_options([src], [src]) == ["f.c", "m.y"]
    # a literal equal to the default, by position or keyword, sets nothing
    defaults = "g(1, 2.0, 'a', c=-1e-6)\ng(x=1.0, b=2, c=-0.000001)\n"
    src = "def g(x=1, b=2.0, s='a', *, c=-1e-6):\n    pass\n"
    assert _unset_options([src], [defaults]) == ["g.b", "g.c", "g.s", "g.x"]
    assert _unset_options([src], [defaults + "g(y, 2.5, s=None, c=-1e-7)\n"]) == []


def _raised_names(sources: list[str]) -> set[str]:
    """Names that a ``raise`` statement in ``sources`` raises, called or not."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


def test_every_package_error_has_a_raise_site():
    # an error class whose last raise went away lingers in __all__ otherwise
    errors = [name for name, obj in vars(confweight.errors).items()
              if isinstance(obj, type) and issubclass(obj, confweight.ConfweightError)
              and obj is not confweight.ConfweightError]
    sources = [p.read_text() for p in MODULES]
    assert len(errors) >= 10
    assert sorted(set(errors) - _raised_names(sources)) == []


def test_the_walk_sees_an_error_no_code_raises():
    src = ("class A(Exception):\n    pass\nclass B(A):\n    pass\nclass C(A):\n    pass\n"
           "def f(x):\n    if x:\n        raise errors.B('b')\n    try:\n        pass\n"
           "    except C:\n        raise\n    raise A\n")
    assert _raised_names([src]) == {"A", "B"}
