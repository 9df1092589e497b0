"""A guard over the syntax of the package: no module keeps state between calls.

A cache belongs to the call that fills it (a sweep's folds, a loop's grid
arrays, a probe row's system), so the modules of ``src/translates`` declare
no ``global`` or ``nonlocal`` name, hold no ``threading.local``, and no
function rebinds or changes a module-level name.  Nor does a function assign
an attribute of another object than its own ``self``.  ``functools.lru_cache``
of a pure function (``spectral._smooth_length``, ints to ints) is no such state
and is not flagged.

Run as a script, it prints what it finds in the modules of a directory:

    python tests/test_module_state.py [src/translates]
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "translates"
MODULES = sorted(SRC.glob("*.py"))

# methods that change a list, dict or set in place
_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem", "clear", "add", "discard", "remove"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _targets(node):
    """The assignment targets of a statement, tuples unpacked."""
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    elif isinstance(node, ast.Delete):
        todo = list(node.targets)
    else:
        todo = []
    while todo:
        target = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        else:
            yield target


def _root(node):
    """The name an attribute, item or starred target hangs on, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_threading_local(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "threading" and any(a.name == "local" for a in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "local" and _root(node.value) == "threading"


def _own_nodes(scope):
    """The nodes of a function's body, and the functions and classes nested in it (not their bodies)."""
    todo, nodes, nested = list(scope.body), [], []
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            nested.append(node)
            continue
        nodes.append(node)
        todo.extend(ast.iter_child_nodes(node))
    return nodes, nested


def _functions(body):
    """The functions of a module or class body, each with whether it is a method."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            yield from ((fn, True) for fn, _ in _functions(node.body))


def _scope_hits(fn, module_names, outer, method):
    """(module state, foreign attribute writes) of one function and those nested in it."""
    nodes, nested = _own_nodes(fn)
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    params += [a.arg for a in (fn.args.vararg, fn.args.kwarg) if a]
    own = set(params) | {n.name for n in nested}
    own |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    own |= {a.arg for n in nodes if isinstance(n, ast.Lambda) for a in n.args.args}
    own |= {(a.asname or a.name).split(".")[0] for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    declared = {name for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
    local = (own | outer) - declared
    state, writes = set(declared), []
    for node in nodes:
        for target in _targets(node):
            name = _root(target)
            if name in module_names and name not in local:
                state.add(name)
            own_attribute = method and isinstance(target, ast.Attribute) and ast.unparse(target.value) == params[0]
            if isinstance(target, ast.Attribute) and not own_attribute:
                writes.append((node.lineno, ast.unparse(target)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            name = _root(node.func.value)
            if name in module_names and name not in local:
                state.add(name)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr"):
            writes.append((node.lineno, ast.unparse(node)))
    for inner in nested:
        if isinstance(inner, ast.ClassDef):
            pairs = [(f, True) for f, _ in _functions(inner.body)]
        else:
            pairs = [(inner, False)]
        for f, is_method in pairs:
            more_state, more_writes = _scope_hits(f, module_names, local, is_method)
            state |= more_state
            writes += more_writes
    return state, writes


def module_state(source: str) -> tuple:
    """(names, writes) of a module's source.  ``names`` holds each name that
    is declared ``global`` or ``nonlocal``, bound to a ``threading.local``, or
    a module-level name that a function rebinds or changes through an
    attribute, an item or a mutating method; ``writes`` holds (line, target)
    of each assignment in a function to an attribute of anything but the
    method's own first argument."""
    tree = ast.parse(source)
    module_names = {_root(t) for node in tree.body for t in _targets(node)} - {None}  # bound by assignment
    names = {name for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
    for node in tree.body:  # a threading.local, named by its module-level holder
        if any(_is_threading_local(n) for n in ast.walk(node)):
            holders = {_root(t) for t in _targets(node)} - {None}
            names |= holders or {"threading.local"}
    writes = []
    for fn, method in _functions(tree.body):
        state, more = _scope_hits(fn, module_names, set(), method)
        names |= state
        writes += more
    return names, writes


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_no_state_between_calls(path):
    assert module_state(path.read_text())[0] == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_assign_no_attribute_of_another_object(path):
    assert module_state(path.read_text())[1] == []


def test_guard_finds_each_kind_of_state():
    source = '''
import threading
from threading import local
_memo = {}
_last = None
_tls = threading.local()
COLUMNS = ["a"]

def keep(x):
    global _last
    _last = x

def fill(k, v):
    _memo[k] = v
    COLUMNS.append(k)

def tag(obj):
    obj.seen = True

class Box:
    def set(self, v):
        self.v = v

    def share(self, other):
        other.v = self.v
        _tls.grid = self.v

def counter():
    n = 0
    def bump():
        nonlocal n
        n += 1
    return bump

def clean(values):
    out = {}
    out["k"] = values
    values.sort()
    return [v for v in values]
'''
    names, writes = module_state(source)
    assert names == {"_last", "_memo", "COLUMNS", "_tls", "threading.local", "n"}  # the import unnamed
    assert [target for _, target in sorted(writes)] == ["obj.seen", "other.v", "_tls.grid"]


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    for path in sorted(root.glob("*.py")):
        names, writes = module_state(path.read_text())
        for name in sorted(names):
            print(f"{path.name}: module state {name}")
        for line, target in writes:
            print(f"{path.name}:{line}: assigns {target}")
