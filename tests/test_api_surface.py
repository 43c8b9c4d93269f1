"""Every defaulted parameter of the package is set by some caller.

A parameter with a default that no call in ``src/``, ``tests/``, ``demos/``
or ``perfbench/`` passes, by keyword or by position, is a constant in
disguise: it carries a branch nobody runs and a knob nobody turns.  The
scan reads the sources with ``ast`` only; nothing is imported or run.

Calls are matched by name: ``f(...)`` and ``obj.f(...)`` reach every
function or method named ``f``, and ``Cls(...)`` reaches the ``__init__``
(or the dataclass fields, less those with ``init=False``) of ``Cls``.  A
positional argument at an index where another definition of the same name
has a required parameter is taken to fill that one, so a call that could
mean either never counts as setting a default.
"""

import ast
import os
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hjhomog")
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _py_files(top):
    for base, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_field(stmt):
    """A dataclass field that is a constructor parameter (not init=False)."""
    if not (isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)):
        return False
    return not (isinstance(stmt.value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False
        for k in stmt.value.keywords))


def _function_params(fn, method):
    """(names, defaulted) of the parameters a call can fill; a method's
    first parameter is bound by the call and left out."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    n_def = len(args.defaults)
    defaulted = {a.arg for a in positional[len(positional) - n_def:]}
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    return [a.arg for a in positional[skip:]], defaulted


def definitions():
    """name -> [(owner label, positional names, defaulted names)]."""
    defs = defaultdict(list)
    for path in _py_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]

        def visit(node, owner, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if _is_dataclass(child):
                        fields = [s for s in child.body if _init_field(s)]
                        defs[child.name].append((
                            f"{module}.{child.name}",
                            [s.target.id for s in fields],
                            {s.target.id for s in fields
                             if s.value is not None}))
                    visit(child, f"{owner}{child.name}.", True)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    names, defaulted = _function_params(child, in_class)
                    label = f"{module}.{owner}{child.name}"
                    key = owner.rstrip(".").split(".")[-1] \
                        if child.name == "__init__" else child.name
                    defs[key].append((label, names, defaulted))
                    visit(child, f"{owner}{child.name}.", False)

        visit(_parse(path), "", False)
    return defs


def passed_arguments(defs):
    """The set of (owner label, parameter) that some call fills."""
    passed = set()
    for top in CALLER_DIRS:
        for path in _py_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                targets = defs.get(name, ())
                keywords = {k.arg for k in node.keywords if k.arg}
                n_pos = 0
                for a in node.args:
                    if isinstance(a, ast.Starred):
                        break
                    n_pos += 1
                for label, names, defaulted in targets:
                    for i, param in enumerate(names):
                        by_position = i < n_pos and not any(
                            i < len(other) and other[i] not in other_def
                            for lab, other, other_def in targets
                            if lab != label)
                        if param in keywords or by_position:
                            passed.add((label, param))
    return passed


def test_every_defaulted_parameter_has_a_setter():
    defs = definitions()
    passed = passed_arguments(defs)
    unset = sorted(f"{label}({param})"
                   for entries in defs.values()
                   for label, _, defaulted in entries
                   for param in defaulted
                   if (label, param) not in passed)
    assert not unset, (f"{len(unset)} defaulted parameters that no caller "
                       f"sets: " + ", ".join(unset))
