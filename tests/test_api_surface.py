"""Every defaulted parameter of the package is set by some caller outside
the tests and left unset by another, every keyword a caller passes names a
parameter, every public name, method and property of the package has a
caller outside the tests, every dataclass field is read, and every warning
the package raises has a category of its own.

A parameter with a default that no call in ``src/``, ``demos/``,
``perfbench/`` or ``tests/proof_checks.py`` passes, by keyword or by
position, is a constant in disguise: it carries a branch that only a test
runs, or none, and a knob that only a test turns.  A call from a function
to itself sets nothing when it passes its own parameter through unchanged
or passes the parameter's default literal.  ``cli.main(argv)`` is the one
exception: it is the console-script entry point, which the command line
fills and the CLI tests drive.  Conversely, a default that every one of
those calls overrides is a value no route uses, and its parameter is
required in all but name.  A call with ``*args`` or ``**kwargs`` leaves
every default unset, and a self-call that passes a parameter through, as
above, neither sets nor leaves it.  A keyword that no definition of the
called name accepts, in any caller directory, the tests included, is a stale
call, which fails only when it runs (the demos are only byte-compiled).  A
public module-level function or class that nothing in ``src/`` outside its
own definition, and nothing in ``demos/``, names (a re-export in an
``__init__.py`` is no use) is test scaffolding shipped as API; it belongs
beside its tests, in ``tests/proof_checks.py``.  The same holds for a
public method or property that nothing in ``src/`` outside its own body,
and nothing in ``demos/`` or ``perfbench/``, names as an attribute, and
for a dataclass field that no attribute load in ``src/``, ``demos/``,
``perfbench/`` or ``tests/proof_checks.py`` reads.  Both go by name, so a
method that shares its name with a used one passes.  The scan reads the
sources with ``ast`` only; nothing is imported or run.  A
``warnings.warn`` in ``src/`` without a category defined in ``errors.py``
reaches the reports as a bare "UserWarning: ...", which no filter can
single out.

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
PROOF_CHECKS = os.path.join(ROOT, "tests", "proof_checks.py")
#: defaulted parameters that only the tests set, on purpose
SEAMS = {"cli.main(argv)"}


def _py_files(top):
    for base, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _caller_files(tops):
    for top in tops:
        yield from _py_files(os.path.join(ROOT, top))


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
    a method's first parameter is bound by the call and left out,
    ``defaulted`` maps each defaulted name to its default expression, and
    ``keywords`` is None when a ``**`` parameter takes any keyword."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    n_def = len(args.defaults)
    defaulted = {a.arg: d for a, d in zip(positional[len(positional) - n_def:],
                                          args.defaults)}
    defaulted |= {a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    keywords = None if args.kwarg else {
        a.arg for a in args.args[skip:] + args.kwonlyargs}
    return [a.arg for a in positional[skip:]], defaulted, keywords


def definitions():
    """name -> [(owner label, positional names, {defaulted name: default},
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
                            {s.target.id: s.value for s in fields
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


def _enclosed(tree, module):
    """(call node, label of the package function it sits in or None) for
    every call of a module; labels are those of ``definitions``."""
    def visit(node, owner, label):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{owner}{child.name}.", label)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{owner}{child.name}.",
                                 f"{module}.{owner}{child.name}")
            else:
                if isinstance(child, ast.Call):
                    yield child, label
                yield from visit(child, owner, label)
    yield from visit(tree, "", None)


def calls(defs, paths):
    """(path, call node, definitions it reaches, label of the enclosing
    package function or None) for every call in ``paths`` that reaches
    some package definition."""
    for path in paths:
        tree = _parse(path)
        foreign = _foreign_names(tree)
        module = os.path.splitext(os.path.basename(path))[0] \
            if path.startswith(PACKAGE + os.sep) else None
        for node, enclosing in _enclosed(tree, module):
            func = node.func
            through = func.value if isinstance(func, ast.Attribute) \
                else func
            if getattr(through, "id", None) in foreign:
                continue
            targets = defs.get(getattr(func, "id", getattr(
                func, "attr", None)))
            if targets:
                yield path, node, targets, enclosing


def _passes_itself(node, i, param, default):
    """Whether ``node``, a call of a function from inside itself, passes
    its parameter ``param`` (position ``i``) through unchanged or at its
    default literal: a self-call that sets nothing."""
    arg = next((k.value for k in node.keywords if k.arg == param), None)
    if arg is None:
        arg = node.args[i]
    return getattr(arg, "id", None) == param or (
        default is not None and ast.dump(arg) == ast.dump(default))


def _filled(defs, paths):
    """(label "owner(parameter)", whether the call sets it, whether it
    leaves it unset) for every parameter of every definition a call in
    ``paths`` reaches.  A function passing a parameter to itself unchanged
    neither sets nor leaves it; a call with ``*args`` or ``**kwargs``
    leaves every parameter unset."""
    for _, node, targets, enclosing in calls(defs, paths):
        keywords = {k.arg for k in node.keywords if k.arg}
        n_pos = 0
        for a in node.args:
            if isinstance(a, ast.Starred):
                break
            n_pos += 1
        starred = n_pos < len(node.args) or len(keywords) < len(node.keywords)
        for label, names, defaulted, _ in targets:
            for i, param in enumerate(names):
                by_position = i < n_pos and not any(
                    i < len(other) and other[i] not in other_def
                    for lab, other, other_def, _ in targets
                    if lab != label)
                named = param in keywords or by_position
                if named and label == enclosing and _passes_itself(
                        node, i, param, defaulted.get(param)):
                    continue
                yield (f"{label}({param})", named,
                       starred or not (param in keywords or i < n_pos))


def _defaulted(defs):
    return {f"{label}({param})" for entries in defs.values()
            for label, _, params, _ in entries for param in params}


SETTERS = [*_caller_files(("src", "demos", "perfbench")), PROOF_CHECKS]


def test_every_defaulted_parameter_has_a_setter():
    defs = definitions()
    passed = {label for label, sets, _ in _filled(defs, SETTERS) if sets}
    defaulted = _defaulted(defs)
    assert SEAMS <= defaulted - passed, f"stale seams: {sorted(SEAMS)}"
    unset = sorted(defaulted - passed - SEAMS)
    assert not unset, (f"{len(unset)} defaulted parameters that no caller "
                       f"outside the tests sets: " + ", ".join(unset))


def test_every_default_is_relied_on():
    """The converse: a default that every call outside the tests overrides
    is a value no route uses."""
    defs = definitions()
    relied = {label for label, _, unset in _filled(defs, SETTERS) if unset}
    unused = sorted(_defaulted(defs) - relied)
    assert not unused, (f"{len(unused)} defaults that every caller outside "
                        f"the tests overrides: " + ", ".join(unused))


def test_every_keyword_names_a_parameter():
    stale = sorted(
        f"{os.path.relpath(path, ROOT)}:{node.lineno} "
        f"{ast.unparse(node.func)}({k.arg}=)"
        for path, node, targets, _ in calls(definitions(),
                                            _caller_files(CALLER_DIRS))
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
    paths.append(PROOF_CHECKS)
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


def _warning_categories():
    """Names of the warning classes ``errors.py`` defines."""
    names = {"UserWarning"}
    for node in _parse(os.path.join(PACKAGE, "errors.py")).body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", None) in names for b in node.bases):
            names.add(node.name)
    return names - {"UserWarning"}


def test_every_warning_names_a_category():
    """Every ``warnings.warn`` in ``src/`` passes, as its second argument
    or as ``category=``, a warning class defined in ``errors.py``."""
    categories = _warning_categories()
    bare = []
    for path in _py_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "warn"
                    and getattr(node.func.value, "id", None) == "warnings"):
                continue
            category = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "category"),
                None)
            if getattr(category, "id", None) not in categories:
                bare.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    assert not bare, (f"{len(bare)} warnings without a category from "
                      f"errors.py: " + ", ".join(bare))
