"""Every name a package module or script imports is used or exported, no
package module imports ``hashlib`` but as a fallback, ``Fraction`` appears
in the package only where rationals are the point, every parameter a
function there takes is read, every function, class and method the package
defines has a caller in it, and every reference implementation in
tests/oracles.py has a caller in the tests."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/hallcanon/*.py"))
SCRIPTS = sorted(ROOT.glob("scripts/*.py"))
FILES = PACKAGE + SCRIPTS

# Definitions with no caller in src/ or scripts/ that stay in the package.
UNCALLED_ALLOWED = {
    "fqrep.aut_order": "traced name: perfbench/tracing.py TARGETS",
    "hallpoly.HallPolyEngine.aut_polynomial": "traced name: perfbench/tracing.py TARGETS",
    "hallpoly.fit_rational_function": "traced name: perfbench/tracing.py TARGETS",
    "canonical.lusztig_solve": "traced name: perfbench/tracing.py TARGETS",
    "combinatorics.CombinatorialContext.aut": "traced name: perfbench/tracing.py TARGETS "
    "patches it as fqrep.FieldContext.aut",
    "cli._Parser.error": "argparse override: argparse calls it on each usage error",
    "config.JobConfig._make": "namedtuple override: _replace calls it",
}


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads.

    A name counts as read when it occurs as an identifier anywhere in the
    module or is listed in ``__all__``; ``__future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_detector():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\n"
    src += "__all__ = ['b']\nprint(sys.argv)\n"
    assert unused_imports(src) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def hashlib_imports(source: str) -> list:
    """Lines that import ``hashlib`` outside an ``except ImportError``
    handler.

    ``hashlib`` loads OpenSSL, several MB of a run's peak memory; the
    package hashes with the interpreter's built-in sha256, and reaches
    ``hashlib`` only where that import fails.
    """
    tree = ast.parse(source)
    fallback = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name) and (
            node.type.id in ("ImportError", "ModuleNotFoundError")
        ):
            fallback.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] == "hashlib" for n in names) and id(node) not in fallback:
            out.append(node.lineno)
    return out


def test_hashlib_import_detector():
    src = "import hashlib\ndef f():\n    from hashlib import sha256\n"
    src += "try:\n    from _sha256 import sha256\nexcept ImportError:\n    import hashlib\n"
    src += "try:\n    pass\nexcept OSError:\n    import hashlib as h\n"
    assert hashlib_imports(src) == [1, 3, 11]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_loads_no_openssl(path):
    assert hashlib_imports(path.read_text()) == []


# The only place in the package that may name Fraction: the traced rational
# fit, which imports it in its own body.  The pipeline's arithmetic is over
# Z, the quiver's kernels included, so no command loads ``fractions``.
FRACTION_ALLOWED = {
    "hallpoly.fit_rational_function",
}


def fraction_uses(module: str, source: str) -> set:
    """Where ``source`` names ``Fraction``: "module.<qualified def>" for a use
    inside a function or class, "module.<module>" for an import or a use at
    module level."""
    out = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
            if (
                isinstance(child, ast.Name) and child.id == "Fraction"
                or isinstance(child, ast.Attribute) and child.attr == "Fraction"
                or isinstance(child, ast.alias) and "Fraction" in (child.name, child.asname)
            ):
                out.add(f"{module}.{inner}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return out


def test_fraction_use_detector():
    src = "from fractions import Fraction\nclass K:\n    def f(self) -> Fraction:\n"
    src += "        return 1\n\n    def g(self):\n        import fractions\n"
    src += "        return fractions.Fraction(1)\n\ndef h():\n    return 2\n"
    assert fraction_uses("mod", src) == {"mod.<module>", "mod.K.f", "mod.K.g"}


def test_fraction_stays_out_of_the_pipeline():
    uses = set().union(*(fraction_uses(p.stem, p.read_text()) for p in PACKAGE))
    assert sorted(uses - FRACTION_ALLOWED) == []


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter its function never reads.

    A parameter counts as read when its name is loaded anywhere in the body,
    nested functions included; ``self``, ``cls`` and ``_``-prefixed names
    are exempt.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if p is None or p.arg in ("self", "cls") or p.arg.startswith("_"):
                continue
            if p.arg not in read:
                out.append((node.lineno, name, p.arg))
    return out


def test_unread_parameter_detector():
    src = "def f(self, a, b, _c, *args, d=1, **kw):\n    def g(e):\n        return a\n"
    src += "    b = 2\n    return g(kw)\n\nh = lambda x, y: x\n"
    assert unread_parameters(src) == [
        (1, "f", "b"),
        (1, "f", "args"),
        (1, "f", "d"),
        (2, "g", "e"),
        (7, "<lambda>", "y"),
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def uncalled_definitions(package: dict, others: list) -> list:
    """Qualified names of the non-dunder functions, classes and methods in
    ``package`` ({module name: source}) with no use outside their own
    definition, in ``package`` or in ``others``.

    A method is used only through an attribute ``x.f``: a local variable
    ``f`` does not make a method ``f`` used.  Any other definition in module
    ``m`` is used only through its bare name in ``m``, an import of it from
    ``m``, or ``m.name``: a method call ``x.f()`` does not make a module
    function ``f`` used, nor does a bare ``f`` in a module that takes ``f``
    from elsewhere or defines its own.
    """
    bare = defaultdict(list)  # (module, name) -> [(source key, line)]
    attr = defaultdict(list)
    for key, source in [*package.items(), *enumerate(others)]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and key in package:
                bare[key, node.id].append((key, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bare[node.module.split(".")[-1], alias.name].append((key, node.lineno))
            elif isinstance(node, ast.Attribute):
                attr[node.attr].append((key, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in package:
                    bare[node.value.id, node.attr].append((key, node.lineno))
    out = []

    def visit(module, node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, prefix, in_class)
                continue
            name = child.name
            if not (name.startswith("__") and name.endswith("__")):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                uses = attr[name] if in_class else bare[module, name]
                if all(key == module and first <= line <= child.end_lineno for key, line in uses):
                    out.append(f"{module}.{prefix}{name}")
            visit(module, child, f"{prefix}{name}.", isinstance(child, ast.ClassDef))

    for module, source in package.items():
        visit(module, ast.parse(source), "", False)
    return out


def test_uncalled_definition_detector():
    mod = "def used():\n    return 1\n\ndef dead(x):\n    return dead(x - 1)\n\n"
    mod += "class K:\n    def __init__(self):\n        used()\n\n    def m(self):\n        pass\n"
    assert uncalled_definitions({"mod": mod}, []) == ["mod.dead", "mod.K", "mod.K.m"]
    assert uncalled_definitions({"mod": mod}, ["from mod import K\nK().m()"]) == ["mod.dead"]
    # A method call .bar() does not use a module function bar; an import,
    # a bare name in its module or mod.bar does.
    mod = "def bar():\n    return 1\n\nclass K:\n    def bar(self):\n        return 2\n\n"
    mod += "print(K().bar())\n"
    assert uncalled_definitions({"mod": mod}, []) == ["mod.bar"]
    for use in ["from mod import bar", "from .mod import bar", "import mod\nmod.bar()"]:
        assert uncalled_definitions({"mod": mod}, [use]) == [], use
    assert uncalled_definitions({"mod": mod}, ["other.bar()"]) == ["mod.bar"]
    assert uncalled_definitions({"mod": mod + "print(bar)\n"}, []) == []
    # Two modules define gcd: a bare gcd in the one uses only its own, and
    # a bare gcd outside the package names neither.
    one = "def gcd(a, b):\n    return a\n\nprint(gcd(1, 2))\n"
    two = "def gcd(a, b):\n    return b\n"
    assert uncalled_definitions({"one": one, "two": two}, []) == ["two.gcd"]
    assert uncalled_definitions({"one": one, "two": two}, ["print(gcd(1, 2))"]) == ["two.gcd"]
    for use in ["from two import gcd\ngcd(1, 2)", "import two\ntwo.gcd(1, 2)"]:
        assert uncalled_definitions({"one": one, "two": two}, [use]) == [], use
    # A bare name, such as a local variable, does not use a method of that name.
    mod = "class K:\n    def scale(self):\n        return 1\n\n"
    mod += "def f(scale):\n    return K(), scale\n\nf(2)\n"
    assert uncalled_definitions({"mod": mod}, []) == ["mod.K.scale"]
    assert uncalled_definitions({"mod": mod}, ["K().scale()"]) == []


def test_every_definition_has_a_caller():
    package = {p.stem: p.read_text() for p in PACKAGE}
    others = [p.read_text() for p in SCRIPTS]
    uncalled = uncalled_definitions(package, others)
    assert sorted(set(uncalled) - set(UNCALLED_ALLOWED)) == []
    # An allowlisted name that gained a caller, or left the package, leaves the list.
    assert sorted(set(UNCALLED_ALLOWED) - set(uncalled)) == []


def traced_targets() -> set:
    """The names that perfbench/tracing.py patches, as "module.attribute
    path", read from the text of its TARGETS list."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    return {f"{mod}.{path}" for mod, path, *_ in ast.literal_eval(targets)}


def test_traced_allowances_are_traced():
    # A definition kept only as a traced name stays only while the tracer
    # patches it, under its own name or the one its reason gives.
    targets = traced_targets()
    for name, reason in UNCALLED_ALLOWED.items():
        if reason.startswith("traced name"):
            patched = reason.partition(" patches it as ")[2] or name
            assert patched in targets, name


def test_every_oracle_has_a_caller():
    oracles = {"oracles": (ROOT / "tests" / "oracles.py").read_text()}
    tests = [p.read_text() for p in sorted(ROOT.glob("tests/test_*.py"))]
    assert uncalled_definitions(oracles, tests) == []
