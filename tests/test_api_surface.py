"""Every public function and class of the package, and every public
method and property of its classes, has a caller in the package or the
demos: an API that only tests call is dead weight.  Every private
function and class, and every UPPERCASE constant, is read somewhere in
the package: a helper nothing calls is dead code.  Every field of a
public dataclass is read in the package or the demos: a field only its
constructor sets is dead data.  Every parameter with a default of a
public function or method is set by some call in the package or the
demos: an option only tests set is dead weight.  Every member of a
public enum is named, outside a comparison against it, in the package or
the demos: a member that code only tests for is a branch no caller takes.
Every module-level import of the package, the demos and the tests is
read in the file that makes it."""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fisherqp").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names a module reads, calls or imports; assignment targets do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _parse(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _constants(node: ast.stmt) -> list[str]:
    """UPPERCASE names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and t.id.isupper()]


def test_every_public_definition_has_a_caller():
    trees = _parse(MODULES + DEMOS)
    referenced = set().union(*(_referenced_names(t) for t in trees.values()))
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_")
        and node.name not in referenced
    )
    assert not unused, f"no module or demo references {', '.join(unused)}"


def test_every_public_method_and_property_has_a_caller():
    # a method is matched by name alone: any attribute of that name counts
    trees = _parse(MODULES + DEMOS)
    referenced = set().union(*(_referenced_names(t) for t in trees.values()))
    unused = sorted(
        f"{path.stem}.{cls.name}.{node.name}"
        for path in MODULES
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    )
    assert not unused, f"no module or demo references {', '.join(unused)}"


def test_every_private_definition_and_constant_is_read_in_the_package():
    trees = _parse(PACKAGE)
    referenced = set().union(*(_referenced_names(t) for t in trees.values()))
    unused = sorted(
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for node in tree.body
        for name in (
            [node.name] if isinstance(node, DEFINITIONS) and node.name.startswith("_")
            else _constants(node)
        )
        if name not in referenced
    )
    assert not unused, f"no module of the package reads {', '.join(unused)}"


def _is_enum(cls: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Attribute) and base.attr == "Enum"
               or isinstance(base, ast.Name) and base.id == "Enum"
               for base in cls.bases)


def _attributes_supplied(tree: ast.AST) -> set[str]:
    """Attribute names a module loads outside a comparison: ``f(E.M)``
    and ``x = E.M`` supply the member M, ``x is E.M`` only tests for it."""
    compared = {id(operand) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in compared}


def test_every_enum_member_is_supplied():
    # a member is matched by name alone, as a method is; iterating the
    # enum names no member
    trees = _parse(MODULES + DEMOS)
    supplied = set().union(*(_attributes_supplied(t) for t in trees.values()))
    unused = sorted(
        f"{path.stem}.{cls.name}.{target.id}"
        for path in MODULES
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef) and _is_enum(cls) and not cls.name.startswith("_")
        for node in cls.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id not in supplied
    )
    assert not unused, f"no module or demo supplies {', '.join(unused)}"


# options only tests and bench/inprocess.py set: they drive the CLI in
# process through main(argv)
TEST_ONLY_OPTIONS = {"cli.main(argv=)"}


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(tree: ast.AST):
    """(callee name, positional arguments, keyword names) of every call;
    ``partial(f, ...)`` counts as a call of f with the arguments it binds,
    and a ``*args`` or ``**kwargs`` as setting every parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if _callee(func) == "partial" and args:
            func, args = args[0], args[1:]
        spread = (any(isinstance(a, ast.Starred) for a in args)
                  or any(k.arg is None for k in node.keywords))
        yield _callee(func), math.inf if spread else len(args), {k.arg for k in node.keywords}


def _defaulted(fn: ast.FunctionDef):
    """(name, position) of every parameter with a default; a keyword-only
    one has no position."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from ((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None)


def _public_functions(tree: ast.Module):
    """(qualified name, node, bound arguments) of every public function and
    public method; a method's ``self`` is bound by its call."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    static = any(_callee(d) == "staticmethod" for d in m.decorator_list)
                    yield f"{node.name}.{m.name}", m, 0 if static else 1


def test_every_default_parameter_is_set_by_a_caller():
    trees = _parse(PACKAGE + DEMOS)
    calls = {}
    for tree in trees.values():
        for name, positional, keywords in _calls(tree):
            calls.setdefault(name, []).append((positional, keywords))
    unset = sorted(
        option
        for path in MODULES
        for name, fn, bound in _public_functions(trees[path])
        for param, i in _defaulted(fn)
        if (option := f"{path.stem}.{name}({param}=)") not in TEST_ONLY_OPTIONS
        and not any(param in keywords or (i is not None and positional > i - bound)
                    for positional, keywords in calls.get(fn.name, ()))
    )
    assert not unset, f"no module or demo sets {', '.join(unset)}"


def _imported_names(tree: ast.Module):
    """(line, name) of every name a module-level import binds; a
    ``__future__`` import binds none."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.asname or a.name.split(".")[0]) for a in node.names)


def test_every_module_level_import_is_read():
    # ``__init__`` imports are its exports; everywhere else an import
    # nothing reads (annotations included) is a leftover
    unread = []
    for path, tree in _parse(MODULES + DEMOS + TESTS).items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in read]
    assert not unread, f"imported and never read: {', '.join(unread)}"


LOWER = ("grid", "states", "functionals", "propagator", "extremizers", "legendre",
         "thermal", "serialization")
UPPER = ("reports", "suites", "cli")


def _imported_modules(tree: ast.AST):
    """Last component of every module an import names: ``from .reports
    import x`` gives reports, ``from . import cli`` gives cli."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.split(".")[-1]
            yield from (a.name for a in node.names)


def test_library_layers_import_nothing_from_reports_suites_or_cli():
    # the numerical layers know no check record, suite or command line
    trees = _parse(ROOT / "src" / "fisherqp" / f"{name}.py" for name in LOWER)
    upward = sorted(
        f"{path.stem} imports {module}"
        for path, tree in trees.items()
        for module in set(_imported_modules(tree))
        if module in UPPER
    )
    assert not upward, "; ".join(upward)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def _attributes_read(tree: ast.AST) -> set[str]:
    """Attribute names a module loads: ``x.field``, not ``x.field = ...``
    and not a constructor's ``field=`` keyword."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # a field only a constructor sets, or only tests read, is dead weight;
    # a class that serializes itself with asdict(self) reads every field
    trees = _parse(MODULES + DEMOS)
    read = set().union(*(_attributes_read(t) for t in trees.values()))
    unread = sorted(
        f"{path.stem}.{cls.name}.{node.target.id}"
        for path in MODULES
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        and not cls.name.startswith("_")
        and "asdict" not in _referenced_names(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in read
    )
    assert not unread, f"no module or demo reads {', '.join(unread)}"


FACTORIES = ("make_check", "make_residual_check")


def _record_calls(tree: ast.AST, inside: str = ""):
    """(enclosing function, callee) for every call of a check factory or
    of the ``IdentityCheck`` constructor by name or attribute."""
    for node in ast.iter_child_nodes(tree):
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else inside
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FACTORIES + ("IdentityCheck",):
                yield scope, name
        yield from _record_calls(node, scope)


def test_only_suites_form_check_records():
    # every check is formed in ``suites``; ``reports`` only builds the
    # record inside its two factories
    trees = _parse(p for p in MODULES + DEMOS if p.name != "suites.py")
    formed = sorted(
        f"{path.stem}.{scope or '<module>'} calls {name}"
        for path, tree in trees.items()
        for scope, name in _record_calls(tree)
        if not (path.name == "reports.py" and scope in FACTORIES and name == "IdentityCheck")
    )
    assert not formed, "; ".join(formed)
