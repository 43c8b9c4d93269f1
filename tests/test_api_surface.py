"""Every defaulted parameter of the package is set by some caller, every
keyword a caller passes names a parameter, every public name, method and
property of the package has a caller outside the tests, and every
dataclass field is read.

A parameter with a default that no call in ``src/``, ``tests/``, ``demos/``
or ``perfbench/`` passes, by keyword or by position, is a constant in
disguise: it carries a branch nobody runs and a knob nobody turns.  A
keyword that no definition of the called name accepts is a stale call,
which fails only when it runs (the demos are only byte-compiled).  A
public module-level function or class that nothing in ``src/`` outside its
own definition, and nothing in ``demos/``, names (a re-export in an
``__init__.py`` is no use) is test scaffolding shipped as API; it belongs
beside its tests, in ``tests/proof_checks.py``.  The same holds for a
public method or property that nothing in ``src/`` outside its own body,
and nothing in ``demos/`` or ``perfbench/``, names as an attribute, and
for a dataclass field that no attribute load in ``src/``, ``demos/``,
``perfbench/`` or ``tests/proof_checks.py`` reads.  Both go by name, so a
method that shares its name with a used one passes.  The scan reads the
sources with ``ast`` only; nothing is imported or run.

Calls are matched by name: ``f(...)`` and ``obj.f(...)`` reach every
function or method named ``f``, and ``Cls(...)`` reaches the ``__init__``
(or the dataclass fields, inherited ones first, less those with
``init=False``) of ``Cls``.  A call through a name imported from outside
the package (``np.mean``, ``subprocess.run``) reaches none of them.  A
positional argument at an index where another definition of the same name
has a required parameter is taken to fill that one, so a call that could
mean either never counts as setting a default.
"""

import ast
import os
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hjhomog")
CALLER_DIRS = ("src", "tests", "demos", "perfbench")
USER_DIRS = ("src", "demos")


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
    """(names, defaulted, keywords) of the parameters a call can fill;
    a method's first parameter is bound by the call and left out, and
    ``keywords`` is None when a ``**`` parameter takes any keyword."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    n_def = len(args.defaults)
    defaulted = {a.arg for a in positional[len(positional) - n_def:]}
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    keywords = None if args.kwarg else {
        a.arg for a in args.args[skip:] + args.kwonlyargs}
    return [a.arg for a in positional[skip:]], defaulted, keywords


def definitions():
    """name -> [(owner label, positional names, defaulted names,
    keyword names or None for any)]."""
    defs = defaultdict(list)
    fields_of = {}                    # dataclass name -> its init fields

    def dataclass_fields(cls):
        own = [s for s in cls.body if _init_field(s)]
        inherited = [f for base in cls.bases
                     for f in fields_of.get(getattr(base, "id", None), [])]
        return inherited + own

    for path in _py_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]

        def visit(node, owner, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if _is_dataclass(child):
                        fields = fields_of[child.name] = \
                            dataclass_fields(child)
                        names = [s.target.id for s in fields]
                        defs[child.name].append((
                            f"{module}.{child.name}", names,
                            {s.target.id for s in fields
                             if s.value is not None}, set(names)))
                    visit(child, f"{owner}{child.name}.", True)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    label = f"{module}.{owner}{child.name}"
                    key = owner.rstrip(".").split(".")[-1] \
                        if child.name == "__init__" else child.name
                    defs[key].append((label,
                                      *_function_params(child, in_class)))
                    visit(child, f"{owner}{child.name}.", False)

        visit(_parse(path), "", False)
    return defs


def _foreign_names(tree):
    """Names a module binds by importing from outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names
                      if a.name.split(".")[0] != "hjhomog"}
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and (node.module or "").split(".")[0] != "hjhomog":
            names |= {a.asname or a.name for a in node.names}
    return names


def calls(defs):
    """(path, call node, definitions it reaches) for every call in the
    caller directories that reaches some package definition."""
    for top in CALLER_DIRS:
        for path in _py_files(os.path.join(ROOT, top)):
            tree = _parse(path)
            foreign = _foreign_names(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                through = func.value if isinstance(func, ast.Attribute) \
                    else func
                if getattr(through, "id", None) in foreign:
                    continue
                targets = defs.get(getattr(func, "id", getattr(
                    func, "attr", None)))
                if targets:
                    yield path, node, targets


def passed_arguments(defs):
    """The set of (owner label, parameter) that some call fills."""
    passed = set()
    for _, node, targets in calls(defs):
        keywords = {k.arg for k in node.keywords if k.arg}
        n_pos = 0
        for a in node.args:
            if isinstance(a, ast.Starred):
                break
            n_pos += 1
        for label, names, defaulted, _ in targets:
            for i, param in enumerate(names):
                by_position = i < n_pos and not any(
                    i < len(other) and other[i] not in other_def
                    for lab, other, other_def, _ in targets
                    if lab != label)
                if param in keywords or by_position:
                    passed.add((label, param))
    return passed


def test_every_defaulted_parameter_has_a_setter():
    defs = definitions()
    passed = passed_arguments(defs)
    unset = sorted(f"{label}({param})"
                   for entries in defs.values()
                   for label, _, defaulted, _ in entries
                   for param in defaulted
                   if (label, param) not in passed)
    assert not unset, (f"{len(unset)} defaulted parameters that no caller "
                       f"sets: " + ", ".join(unset))


def test_every_keyword_names_a_parameter():
    stale = sorted(
        f"{os.path.relpath(path, ROOT)}:{node.lineno} "
        f"{ast.unparse(node.func)}({k.arg}=)"
        for path, node, targets in calls(definitions())
        for k in node.keywords
        if k.arg and not any(accepted is None or k.arg in accepted
                             for *_, accepted in targets))
    assert not stale, (f"{len(stale)} keywords that no definition of the "
                       f"called name accepts: " + ", ".join(stale))


def _named(tree):
    """(name, top-level definition it sits in or None) for every name,
    attribute and import in a module."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name, owner


def test_every_public_name_has_a_user_caller():
    public = sorted((os.path.splitext(os.path.basename(path))[0], node.name)
                    for path in _py_files(PACKAGE)
                    for node in _parse(path).body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_"))
    named = {name for top in USER_DIRS
             for path in _py_files(os.path.join(ROOT, top))
             if os.path.basename(path) != "__init__.py"
             for name, owner in _named(_parse(path)) if name != owner}
    unused = [f"{module}.{name}" for module, name in public
              if name not in named]
    assert not unused, (f"{len(unused)} public names that only tests use: "
                        + ", ".join(unused))


def _attributes(tree, load_only=False):
    """The attribute names a tree names, loads only when ``load_only``."""
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and not (load_only and not isinstance(node.ctx, ast.Load))]


def _package_classes():
    """(module, class node) of every class the package defines."""
    for path in _py_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                yield module, node


def test_every_public_method_has_a_user_reader():
    """A public method or property that nothing in ``src/`` outside its own
    body, and nothing in ``demos/`` or ``perfbench/``, names as an
    attribute is reached only by tests, or by nothing."""
    in_src = Counter(name for path in _py_files(PACKAGE)
                     for name in _attributes(_parse(path)))
    elsewhere = {name for top in ("demos", "perfbench")
                 for path in _py_files(os.path.join(ROOT, top))
                 for name in _attributes(_parse(path))}
    unread = sorted(
        f"{module}.{cls.name}.{fn.name}"
        for module, cls in _package_classes()
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_") and fn.name not in elsewhere
        and in_src[fn.name] <= _attributes(fn).count(fn.name))
    assert not unread, (f"{len(unread)} public methods that only tests "
                        f"read: " + ", ".join(unread))


def test_every_dataclass_field_is_read():
    """A dataclass field that no attribute load in ``src/``, ``demos/``,
    ``perfbench/`` or ``tests/proof_checks.py`` reads is written and never
    used."""
    paths = [path for top in ("src", "demos", "perfbench")
             for path in _py_files(os.path.join(ROOT, top))]
    paths.append(os.path.join(ROOT, "tests", "proof_checks.py"))
    read = {name for path in paths
            for name in _attributes(_parse(path), load_only=True)}
    unread = sorted(f"{module}.{cls.name}.{stmt.target.id}"
                    for module, cls in _package_classes()
                    if _is_dataclass(cls)
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in read)
    assert not unread, (f"{len(unread)} dataclass fields that nothing "
                        f"reads: " + ", ".join(unread))
