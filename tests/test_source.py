"""Static checks on the package, test and demo source, in place of a linter."""

import ast
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spannerdraw"
DEMOS = TESTS.parent / "demos"


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads. A __future__ import binds
    no name, and `import a.b` binds a."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_found():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == ["a"]


def test_no_unused_imports():
    # __init__.py imports to re-export.
    package = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files = sorted([*package, *TESTS.glob("*.py"), *DEMOS.glob("*.py")])
    assert package and len(files) > len(package)
    unused = {str(p.relative_to(TESTS.parent)): unused_imports(p.read_text(encoding="utf-8"))
              for p in files}
    assert {name: names for name, names in unused.items() if names} == {}


def private_imports(source: str) -> list[str]:
    """module:name for each name starting with an underscore that a source
    imports from spannerdraw or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "spannerdraw":
            found += [f"{node.module}:{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return sorted(found)


def test_private_imports_found():
    source = (
        "from spannerdraw.metrics import DEFAULT_REL_TOL, _certify\nfrom spannerdraw import _x as y\n"
        "from os import _exit\nfrom .metrics import _scan\ndef f():\n    from spannerdraw.exact import _U\n"
    )
    assert private_imports(source) == ["spannerdraw.exact:_U", "spannerdraw.metrics:_certify", "spannerdraw:_x"]


def test_oracles_import_no_private_names():
    # An oracle that runs the package's private code would share its faults.
    assert private_imports((TESTS / "oracles.py").read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    """function:line:parameter for each parameter of a function or lambda,
    nested ones included, that its body never reads; a read inside a nested
    function counts, a default or an annotation does not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            found += [f"{name}:{node.lineno}:{p.arg}" for p in params if p.arg not in read]
    return sorted(found)


def test_unread_parameters_found():
    source = (
        "def f(a, b=1, *args, c, **kw):\n    return a + kw['x']\n"
        "class A:\n    def m(self, x):\n        def inner():\n            return x\n        return inner\n"
        "g = lambda y, z: y\n"
        "def h(v: int = 0):\n    v = 2\n    return 0\n"
    )
    assert unread_parameters(source) == ["f:1:args", "f:1:b", "f:1:c", "h:9:v", "lambda:8:z", "m:4:self"]


def test_no_unread_parameters():
    # A parameter no caller's value reaches is an option nobody can use.
    found = {p.name: unread_parameters(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {name: params for name, params in found.items() if params} == {}


def imported_modules(source: str) -> set[str]:
    """The top-level modules a source imports; relative imports are the
    package's own and not counted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def undeclared_imports(source: str, declared: set[str]) -> list[str]:
    """The top-level modules a source imports that are neither in the
    standard library nor declared."""
    return sorted(imported_modules(source) - set(sys.stdlib_module_names) - declared)


def declared_dependencies(key: str = "dependencies") -> set[str]:
    """The names of the packages a list of pyproject.toml declares: the
    runtime dependencies, or an extra such as "test". A regex rather than
    tomllib, which Python 3.10 does not have."""
    text = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    specs = re.search(rf"^{key}\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            for spec in re.findall(r'"([^"]+)"', specs)}


def test_undeclared_imports_found():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from . import graph\nfrom .exact import Interval\nfrom networkx import Graph\n"
        "def f():\n    import sortedcontainers.sortedlist\n"
    )
    assert undeclared_imports(source, {"networkx"}) == ["numpy", "sortedcontainers"]


def test_imports_are_declared():
    # The package runs on the standard library alone, though more may be
    # installed; networkx serves the tests and the benchmark only.
    declared = declared_dependencies()
    assert declared == set()
    assert "networkx" in declared_dependencies("test")
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: undeclared_imports(p.read_text(encoding="utf-8"), declared) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


# Standard modules the package does without: dataclasses imports inspect,
# and with it ast, dis and tokenize, a large share of `import spannerdraw`.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def test_slow_imports_found():
    source = "import inspect as i\nfrom dataclasses import dataclass\nimport ast\nfrom .dataclasses import x\n"
    assert sorted(imported_modules(source) & SLOW_IMPORTS) == ["dataclasses", "inspect"]


def test_no_slow_imports():
    found = {p.name: imported_modules(p.read_text(encoding="utf-8")) & SLOW_IMPORTS
             for p in sorted(SRC.glob("*.py"))}
    assert found and {name: names for name, names in found.items() if names} == {}


def test_cli_import_loads_no_slow_module():
    # A fresh interpreter without site (-S) or the environment (-I), with
    # only src/ on sys.path; -B writes no bytecode next to the sources.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spannerdraw.cli; "
            f"print(sorted({sorted(SLOW_IMPORTS)!r} & sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def private_names(node: ast.stmt) -> list[str]:
    """The names starting with one underscore that a module-level statement
    defines as a function, class or constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def references(node: ast.AST) -> set[str]:
    """The names a statement reads, as bare names, attributes or imports."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read |= {alias.name for alias in sub.names}
    return read


def class_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a class: the annotated names of a NamedTuple, or the
    names a class lists in __slots__ and _fields."""
    if any(ast.unparse(base).split(".")[-1] == "NamedTuple" for base in node.bases):
        return [stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return [const.value for stmt in node.body
            if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in ("__slots__", "_fields") for t in stmt.targets)
            for const in ast.walk(stmt.value)
            if isinstance(const, ast.Constant) and isinstance(const.value, str)]


def unread_private_fields(sources: dict[str, str]) -> list[str]:
    """module:Class.field for each field (class_fields) of a class whose
    name starts with an underscore that no statement of any source reads as
    an attribute: a field only the tests read, or nobody. A read through
    self counts for the class whose method makes it only."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def through_self(node: ast.AST) -> bool:
        return isinstance(node.value, ast.Name) and node.value.id == "self"

    loads = [(tree, node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    read = {node.attr for _, node in loads if not through_self(node)}
    own = {(cls.name, node.attr) for tree in trees.values() for cls in ast.walk(tree)
           if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)
           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and through_self(node)}
    return sorted(
        f"{module}:{node.name}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.startswith("_")
        for name in class_fields(node)
        if name not in read and (node.name, name) not in own
    )


def test_unread_private_fields_found():
    sources = {
        "a": ("from typing import NamedTuple\nclass _P(NamedTuple):\n"
              "    x: int\n    y: int\n    z: int = 0\n    w: int = 0\n"
              "    def f(self):\n        return self.w\n"
              "class Public(NamedTuple):\n    v: int\nclass _Plain:\n    u: int\n"
              "class _S:\n    _fields = ('s', 't')\n    __slots__ = (*_fields, '_c')\n"
              "    def m(self):\n        return self._c\n"),
        "b": ("class _Other:\n    def g(self):\n        return self.z\n"
              "def f(p):\n    p.y = 1\n    return p.x + p.s\n"),
    }
    assert unread_private_fields(sources) == ["a:_P.y", "a:_P.z", "a:_S.t"]


def test_no_unread_private_fields():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_fields(sources) == []
    # The check sees the fields of the private records.
    classes = {node.name: class_fields(node) for node in ast.parse(sources["metrics.py"]).body
               if isinstance(node, ast.ClassDef)}
    assert classes["_Tree"] == ["order", "pos", "up", "end"]


def public_functions(node: ast.stmt) -> list[str]:
    """The name of a module-level function that does not start with an
    underscore; classes and their methods are not looked at."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
        return [node.name]
    return []


def unread_definitions(sources: dict[str, str], defined: Callable[[ast.stmt], list[str]],
                       readers: Iterable[str] = ()) -> list[str]:
    """module:name for each name that defined(statement) gives for a
    module-level statement of sources, and that neither another statement
    of any source nor any of the reader sources reads."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    read = [references(node) for _, node in statements]
    outside = set().union(*(references(ast.parse(source)) for source in readers))
    return sorted(
        f"{module}:{name}"
        for i, (module, node) in enumerate(statements)
        for name in defined(node)
        if name not in outside and not any(name in r for j, r in enumerate(read) if j != i)
    )


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level definition that no
    statement of any module reads, other than the definition itself."""
    return unread_definitions(sources, private_names)


def unread_public_functions(package: dict[str, str], readers: Iterable[str]) -> list[str]:
    """module:name for each public module-level function of the package that
    no other statement of the package, and no reader, reads. A re-export of
    __init__ alone is no reader, and the tests are not readers either."""
    modules = {module: source for module, source in package.items()
               if module.removesuffix(".py") != "__init__"}
    return unread_definitions(modules, public_functions, readers)


def unread_public_methods(package: dict[str, str], readers: Iterable[str]) -> list[str]:
    """module:Class.name for each method or property, its name without a
    leading underscore, of a module-level class of the package whose name
    has none either, that nothing reads as an attribute but its own
    definition: no statement of the package outside the class, no other
    member of the class, and no reader. As for functions, __init__ and the
    tests are no readers."""
    def attributes(node: ast.AST) -> set[str]:
        return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}

    trees = {module: ast.parse(source) for module, source in package.items()
             if module.removesuffix(".py") != "__init__"}
    statements = [(node, attributes(node)) for tree in trees.values() for node in tree.body]
    outside = set().union(*(attributes(ast.parse(source)) for source in readers))
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            read = outside.union(*(names for node, names in statements if node is not cls))
            for member in cls.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_")
                        and not any(member.name in attributes(other) for other in cls.body if other is not member)
                        and member.name not in read):
                    found.append(f"{module}:{cls.name}.{member.name}")
    return sorted(found)


def test_dead_private_helpers_found():
    sources = {
        "a": "_K = 1\n_T = int\ndef _used(x: _T): return _K\ndef _dead(): return _dead()\n",
        "b": "from a import _used\n_used(1)\n",
    }
    assert dead_private_helpers(sources) == ["a:_dead"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_private_helpers(sources) == []


def test_unread_public_functions_found():
    package = {
        "__init__": "from .a import exported\n",
        "a": ("def exported(): pass\ndef read(): pass\ndef demoed(): pass\n"
              "def unread(): return unread()\ndef _private(): pass\n"
              "class C:\n    def method(self): pass\n"),
        "b": "from .a import read\nK = read\n",
    }
    demo = "import a\na.demoed()\n"
    assert unread_public_functions(package, [demo]) == ["a:exported", "a:unread"]


def test_unread_public_methods_found():
    package = {
        "__init__": "from .a import C\nC.exported\n",
        "a": ("class C:\n    def __init__(self): self.x = self._p()\n"
              "    def _p(self): pass\n    def exported(self): pass\n"
              "    def read(self): pass\n    def sibling(self): pass\n"
              "    def caller(self): return self.sibling()\n"
              "    def demoed(self): pass\n    def planted(self): return self.planted()\n"
              "    @property\n    def prop(self): pass\n"
              "class _Private:\n    def hidden(self): pass\n"),
        "b": "from .a import C\ndef f(c): return c.read()\n",
    }
    demo = "def g(c):\n    return c.demoed() + c.caller()\n"
    assert unread_public_methods(package, [demo]) == ["a:C.exported", "a:C.planted", "a:C.prop"]


def test_no_unread_public_functions():
    # Only what the package, its CLI or a demo reads ships in src/; a
    # function or method only the tests read belongs in tests/oracles.py.
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text(encoding="utf-8") for p in sorted(DEMOS.glob("*.py"))]
    assert demos
    assert unread_public_functions(package, demos) == []
    assert unread_public_methods(package, demos) == []


def self_calls(source: str) -> list[str]:
    """The functions, nested ones included, that call themselves by bare
    name: recursion, which fails at the interpreter's recursion limit.
    A call through an attribute, such as super().__init__(), is not one."""
    return sorted(
        f"{node.name}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == node.name for sub in ast.walk(node))
    )


def test_self_calls_found():
    source = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "class A(B):\n    def __init__(self):\n        super().__init__()\n"
        "    def g(self):\n        return self.g() + h()\n"
        "def h():\n    def rec(m):\n        return rec(m)\n    return rec(1)\n"
    )
    assert self_calls(source) == ["f:1", "rec:9"]


def test_no_recursion():
    found = {p.name: self_calls(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


VERDICT = re.compile(r"\w+_validate|is_\w+|has_\w+")


def discarded_verdicts(source: str) -> list[int]:
    """The lines of bare expression statements that call a function named
    *_validate, is_* or has_*: a verdict computed and thrown away."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if VERDICT.fullmatch(name):
                lines.append(node.lineno)
    return sorted(lines)


def test_discarded_verdicts_found():
    source = (
        "assert is_a(x)\nis_a(x)\nm.has_b(y)\nok = c_validate(z)\n"
        "def f():\n    c_validate(z)\nthis_is(x)\nvalidate(x)\n"
    )
    assert discarded_verdicts(source) == [2, 3, 6]


def test_no_discarded_verdicts():
    files = sorted([*TESTS.glob("*.py"), *DEMOS.glob("*.py")])
    assert files
    found = {p.name: discarded_verdicts(p.read_text(encoding="utf-8")) for p in files}
    assert {name: lines for name, lines in found.items() if lines} == {}


# What src/ may raise besides a PreconditionError subclass: a malformed file,
# and the builtins of a caller's misuse or a bug; anything else would reach
# the CLI as neither exit 3 nor exit 4. AttributeError is frozen.Frozen's
# answer to an assignment to an immutable value, a misuse.
ALLOWED_RAISES = {"FileFormatError", "ValueError", "TypeError", "ZeroDivisionError",
                  "AssertionError", "AttributeError", "argparse.ArgumentTypeError"}


def subclasses(sources: dict[str, str], base: str) -> set[str]:
    """The classes the sources define that derive from base, by name."""
    bases = {node.name: {ast.unparse(b).split(".")[-1] for b in node.bases}
             for source in sources.values() for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ClassDef)}
    found = {base}
    while grown := {name for name, bs in bases.items() if bs & found} - found:
        found |= grown
    return found - {base}


def unexpected_raises(sources: dict[str, str]) -> list[str]:
    """module:line:name for each raise of the sources whose exception is
    neither a PreconditionError subclass nor in ALLOWED_RAISES; a bare
    re-raise passes."""
    allowed = ALLOWED_RAISES | subclasses(sources, "PreconditionError")
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in allowed:
                    found.append(f"{module}:{node.lineno}:{ast.unparse(exc)}")
    return sorted(found)


def test_unexpected_raises_found():
    sources = {
        "errors": ("class PreconditionError(Exception): pass\n"
                   "class Small(PreconditionError): pass\nclass Tiny(Small): pass\n"
                   "class Missed(Exception): pass\n"),
        "a": ("import argparse\nfrom .errors import Tiny\n"
              "def f(x):\n    if x:\n        raise Tiny('t')\n    raise ValueError\n"
              "def g():\n    try:\n        f(0)\n    except ValueError as exc:\n"
              "        raise argparse.ArgumentTypeError(str(exc)) from exc\n"
              "    except KeyError:\n        raise\n"),
        "b": "def h(x):\n    raise RuntimeError('exhausted')\n    raise Missed(x)\n    raise x\n",
    }
    assert unexpected_raises(sources) == ["b:2:RuntimeError", "b:3:Missed", "b:4:x"]


def test_raises_map_to_exit_codes():
    # cli.main gives exit 3 to a PreconditionError and exit 2 to a
    # FileFormatError; the builtins are faults, never an input's answer.
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unexpected_raises(sources) == []


def inexact_operations(source: str, names: Iterable[str]) -> list[str]:
    """function:line:what for each float literal, float( call, true
    division / (or /=) and math.sqrt in the module-level functions names of
    a source; a docstring's text is no operation."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                    what = "float literal"
                elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "float":
                    what = "float("
                elif isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Div):
                    what = "/"
                elif isinstance(sub, ast.Attribute) and ast.unparse(sub) == "math.sqrt":
                    what = "math.sqrt"
                else:
                    continue
                found.append(f"{node.name}:{sub.lineno}:{what}")
    return sorted(found)


def test_inexact_operations_found():
    source = (
        "import math\n"
        "def f(x: float = math.inf) -> float:\n    \"\"\"a / b, 0.5\"\"\"\n    return x // 2 + (x << 1)\n"
        "def g(x):\n    y = x / 2\n    y /= 3\n    return float(y) + 0.5 + math.sqrt(y) + math.isqrt(x)\n"
        "def h(x):\n    return x / 2\n"
    )
    assert inexact_operations(source, ["f", "g"]) == [
        "g:6:/", "g:7:/", "g:8:float literal", "g:8:float(", "g:8:math.sqrt"]


def test_spanning_ratio_pass_is_exact():
    # The pruned pass and the bounds it reads run on integers alone, with no
    # float and no error model, so its enclosure is the full scan's.
    exact = ["_pruned_scan", "_length", "_tree_weights", "_far_roots"]
    source = (SRC / "metrics.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert set(exact) <= defined
    assert inexact_operations(source, exact) == []


def test_mutants_are_current():
    # tests/mutants.py plants each fault where its old text occurs exactly
    # once, and names tests that exist. Running the mutants is a separate
    # command, `python tests/mutants.py`.
    import mutants

    assert len(mutants.MUTANTS) >= 14
    for m in mutants.MUTANTS:
        assert not mutants.stale(m), m.reason
        for node in m.ids:
            path, *names = node.split("::")
            source = (TESTS.parent / path).read_text(encoding="utf-8")
            assert all(re.search(rf"^\s*(class|def) {name}\b", source, re.M) for name in names), node
