"""The public names of the package are names it runs.

The audit reads the package's source texts.  A module's public names are
its ``__all__``, or, without one, its top-level functions and classes
whose names do not start with ``_``.  ``cli`` is the entry point and is
not audited; the re-exports of ``__init__`` are not runs.  A name is run
when code reachable from the entry point or from module-level code refers
to it: as ``module.name``, in ``from .module import name``, or as a bare
load in its own module that no parameter or local assignment of an
enclosing function shadows.  Annotations are not runs: the modules that
carry them import ``annotations`` from ``__future__``, so none is
evaluated.  A name that only unrun names refer to is itself unrun.
"""

import ast
import importlib
import pathlib
import pkgutil
from collections import defaultdict

import pytest

import freewick

MODULES = ["freewick"] + [
    f"freewick.{info.name}" for info in pkgutil.iter_modules(freewick.__path__)
]

SOURCES = {
    path.stem: path.read_text(encoding="utf-8")
    for path in pathlib.Path(freewick.__file__).parent.glob("*.py")
}

ENTRY = "cli"

# public names that nothing in the package runs, kept on purpose
ALLOWED = {
    "fock.create": "the paper's creation operator; tier-1's per-part oracle for the order-1 monomial",
    "fock.annihilate": "the paper's annihilation operator; tier-1's per-part oracle for the order-1 monomial",
    "fock.neutral": "the paper's neutral operator; tier-1's per-part oracle for the order-1 monomial",
    "xfock.xminus": "the paper's lowering part, beside xplus and xzero; tier-1's per-part oracle for xfield",
    "jacobi.norms": "the second route to the norms g; ROADMAP item 4 settles its role",
    "jacobi.gauss_rule": "Golub-Welsch nodes and weights; ROADMAP item 4 may make it the route to the polynomial table",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _public(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return [n.name for n in tree.body if isinstance(n, _DEFS) and not n.name.startswith("_")]


def _bound(tree: ast.Module) -> dict[ast.AST, set[str]]:
    """Names each function in ``tree`` binds: its parameters, and the stores
    and definitions anywhere in its body, nested functions' bodies included.

    One pass over the tree: a function's body is collected into a set of
    its own, which then joins the enclosing body's set.
    """
    table = {}

    def collect(node, names):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, _DEFS):
            names.add(node.name)
        if not isinstance(node, _FUNCS):
            for child in ast.iter_child_nodes(node):
                collect(child, names)
            return
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        inner = set()
        for child in ast.iter_child_nodes(node):
            collect(child, inner if child in body else names)
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        table[node] = inner | {a.arg for a in params if a is not None}
        names |= inner

    collect(tree, set())
    return table


def _references(module: str, tree: ast.Module) -> list[tuple[str | None, str]]:
    """``(owner, qualified target)`` for every reference in ``module``.

    The owner is the top-level definition whose body holds the reference,
    or ``None`` for code that runs on import (decorators and default values
    included).
    """
    top = {n.name for n in tree.body if isinstance(n, _DEFS)} | {
        t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
        if isinstance(t, ast.Name)
    }
    aliases = {
        a.asname or a.name: a.name
        for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1 and not n.module
        for a in n.names
    }
    bound = _bound(tree)
    refs = []

    def visit(node, owner, scopes, inner=None):
        def free(name):
            return not any(name in scope for scope in scopes)

        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            refs.extend((owner, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in top and free(node.id):
                refs.append((owner, f"{module}.{node.id}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases and free(node.value.id):
                refs.append((owner, f"{aliases[node.value.id]}.{node.attr}"))
        if isinstance(node, _FUNCS):
            outer = [] if isinstance(node, ast.Lambda) else node.decorator_list
            outer += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            for child in outer:
                visit(child, owner, scopes)
            for child in body:
                visit(child, inner or owner, scopes + [bound[node]])
        elif isinstance(node, ast.ClassDef):
            for child in node.decorator_list + node.bases + node.keywords:
                visit(child, owner, scopes)
            for child in node.body:
                visit(child, inner or owner, scopes)
        elif isinstance(node, ast.AnnAssign):
            for child in (node.target, node.value):
                if child is not None:
                    visit(child, owner, scopes)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, owner, scopes)

    for stmt in tree.body:
        visit(stmt, None, [], f"{module}.{stmt.name}" if isinstance(stmt, _DEFS) else None)
    return refs


def unrun_public_names(sources: dict[str, str]) -> set[str]:
    """Qualified public names of the audited modules in ``sources`` that nothing runs."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    public = {
        f"{module}.{name}"
        for module, tree in trees.items() if module not in ("__init__", ENTRY)
        for name in _public(tree)
    }
    owned = defaultdict(list)
    pending = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for owner, target in _references(module, tree):
            if owner is None or module == ENTRY:
                pending.append(target)
            else:
                owned[owner].append(target)
    run = set()
    while pending:
        name = pending.pop()
        if name not in run:
            run.add(name)
            pending += owned[name]
    return public - run


def audit(sources: dict[str, str], allowed: dict[str, str]) -> tuple[list[str], list[str]]:
    """The unrun public names missing from ``allowed``, and the ``allowed``
    entries that are no longer unrun public names."""
    unrun = unrun_public_names(sources)
    return sorted(unrun - allowed.keys()), sorted(allowed.keys() - unrun)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", []) if not hasattr(module, x)]
    assert missing == []


def test_public_names_are_run():
    assert audit(SOURCES, ALLOWED) == ([], [])


def test_allowlist_is_short_and_gives_reasons():
    assert len(ALLOWED) <= 6
    assert all(reason.strip() for reason in ALLOWED.values())


def test_unreferenced_public_function_is_flagged():
    orphan = "\n\ndef orphan():\n    return 0\n"
    sources = dict(SOURCES, ncpart=SOURCES["ncpart"] + orphan)
    assert audit(sources, ALLOWED) == (["ncpart.orphan"], [])
    listed = SOURCES["fock"].replace("__all__ = [", '__all__ = [\n    "orphan",', 1)
    sources = dict(SOURCES, fock=listed + orphan)
    assert audit(sources, ALLOWED) == (["fock.orphan"], [])


def test_stale_allowlist_entry_is_flagged():
    stale = dict(ALLOWED, **{"fock.inner": "run by the suites", "fock.gone": "not public"})
    assert audit(SOURCES, stale) == ([], ["fock.gone", "fock.inner"])


TOY = {
    "__init__": "from .a import dead\n",
    "a": (
        '__all__ = ["run", "imported", "shadowed", "dead", "only_dead_calls", "LIMIT"]\n'
        "LIMIT = 3\n"
        "def run(shadowed, n=LIMIT):\n"
        "    return shadowed + n\n"
        "def imported():\n"
        "    return 1\n"
        "def shadowed():\n"
        "    return 0\n"
        "def only_dead_calls():\n"
        "    return only_dead_calls\n"
        "def dead() -> run:\n"
        "    return only_dead_calls()\n"
    ),
    "b": "from .a import imported\n",
    "cli": "from . import a\n\ndef main():\n    return a.run(2)\n",
}


def test_audit_rules_on_a_toy_package():
    # a parameter shadows, an annotation is not a run, a name that only
    # unrun names refer to is unrun, and a re-export is not a run
    assert unrun_public_names(TOY) == {"a.shadowed", "a.dead", "a.only_dead_calls"}
