"""Static checks over the package source."""

import ast
import builtins
import importlib.util
import pathlib

import pytest

import lowlying

PACKAGE = pathlib.Path(lowlying.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def exports(tree):
    """The names a parsed module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def public_definitions(tree):
    """The public names a parsed module binds with a top-level def or
    class."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def unused_imports(source):
    """Names a module imports, never reads, and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.linalg starts with a Name read
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read - exports(tree))


def test_scan_finds_an_unused_import():
    source = ("import math\nimport os.path\nfrom json import dumps, loads\n"
              "from .x import y\n__all__ = ['y']\nprint(os.sep, loads)\n")
    assert unused_imports(source) == ["dumps", "math"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


_SLOW_MODULES = ("scipy", "numpy.polynomial")


def slow_loads(source):
    """Line numbers of the code that loads scipy, numpy.polynomial or one
    of their modules: an import, or a numpy.polynomial or np.polynomial
    attribute, which numpy loads on first use."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["%s.%s" % (node.module or "", a.name)
                     for a in node.names]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            names = ["numpy." + node.attr]
        else:
            continue
        if any(n == m or n.startswith(m + ".")
               for n in names for m in _SLOW_MODULES):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_a_planted_scipy_import():
    source = ("import scipyx\nfrom scipy import special\n"
              "def f():\n    import scipy.linalg as la\n    return la\n"
              "import numpy as np\nnp.polynomial.legendre.leggauss(3)\n"
              "from numpy import polynomial, linalg\n"
              "from numpy.polynomial import legendre\n"
              "import numpy.polynomialx, numpy.linalg\n"
              "numpy.polynomial\nnp.linalg.norm, np.polynomialx\n")
    assert slow_loads(source) == [2, 4, 7, 8, 9, 11]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert slow_loads(path.read_text()) == []


def numpy_at_load(source):
    """Line numbers of the imports of numpy or one of its modules that run
    when the module loads: those outside every function body."""
    lines = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module]
        else:
            nodes.extend(ast.iter_child_nodes(node))
            continue
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_a_planted_numpy_import():
    source = ("import numpyx\nimport os, numpy as np\n"
              "from numpy import linalg\nfrom numpy.linalg import norm\n"
              "try:\n    import numpy.fft\nexcept ImportError:\n"
              "    pass\ndef f():\n    import numpy as np\n"
              "    return np\nclass C:\n    import numpy\n"
              "from .numpy import x\nf, C, x, os, norm, linalg\n")
    assert numpy_at_load(source) == [2, 3, 4, 6, 13]


@pytest.mark.parametrize("name", ["summary.py", "paramodular.py"])
def test_dims_modules_load_no_numpy(name):
    # `dims` computes in Fractions, and these are all it loads of the
    # package besides `cli`; a numpy import at load would cost it most of
    # its run
    assert numpy_at_load((PACKAGE / name).read_text()) == []


def _int_call(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") \
        == "int" and len(node.args) == 1


def integer_checks(source):
    """Line numbers of ad-hoc integer rules, which bypass
    `summary._integer`: isinstance(x, int), int(x) compared with x, and
    x = int(x)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", "") == "isinstance" \
                and any(getattr(n, "id", "") == "int"
                        for n in ast.walk(node.args[-1])):
            lines.add(node.lineno)
        elif isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            texts = {ast.unparse(s) for s in sides}
            if any(_int_call(s) and ast.unparse(s.args[0]) in texts
                   for s in sides):
                lines.add(node.lineno)
        elif isinstance(node, ast.Assign) and _int_call(node.value) \
                and ast.unparse(node.value.args[0]) in map(ast.unparse,
                                                          node.targets):
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_planted_integer_checks():
    source = ("def f(x, y, n, a):\n    if not isinstance(x, int):\n"
              "        pass\n    if int(y) != y or y == int(y):\n"
              "        pass\n    n = int(n)\n    k = int(y)\n"
              "    isinstance(x, (float, int))\n    a.m = int(a.m)\n"
              "    return isinstance(x, str), int(x) < y, k != int(y)\n")
    assert integer_checks(source) == [2, 4, 6, 8, 9]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_integer_inputs_pass_one_rule(path):
    assert integer_checks(path.read_text()) == []


_DICT_WRITES = {"setdefault", "update", "pop", "popitem", "clear"}


def _is_dict(node):
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "dict")


def _decorator_name(decorator):
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")


def _unbounded(decorator):
    """functools.cache, or an lru_cache with maxsize=None."""
    name = _decorator_name(decorator)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False  # a bare lru_cache holds 128 entries
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords
                                  if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None
               for s in sizes)


def memo_faults(source):
    """Functions that write into a module-level dict, or memoize without
    a bound, as "function: what" strings."""
    tree = ast.parse(source)
    dicts = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_dict(node.value):
            dicts.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and _is_dict(node.value):
            dicts.add(node.target.id)
    faults = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(_unbounded(d) for d in fn.decorator_list):
            faults.add("%s: unbounded cache" % fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) \
                    and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _DICT_WRITES:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in dicts:
                faults.add("%s: %s" % (fn.name, target.id))
    return sorted(faults)


def test_scan_finds_module_dict_writes_and_unbounded_caches():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "CACHE: dict = {}\nTABLE = {'a': 1}\nOTHER = dict()\n"
              "def f(k):\n    CACHE[k] = 1\n    local = {}\n"
              "    local[k] = 2\n    return TABLE[k]\n"
              "def g(k):\n    OTHER.setdefault(k, 0)\n    CACHE.pop(k)\n"
              "    del TABLE[k]\n    TABLE.get(k)\n"
              "@lru_cache\ndef h(k):\n    return k\n"
              "@lru_cache(None)\ndef h2(k):\n    return k\n"
              "@functools.lru_cache(maxsize=None)\ndef i(k):\n    return k\n"
              "@cache\ndef j(k):\n    return k\n"
              "@lru_cache(64)\ndef k(x):\n    return x\n"
              "@functools.lru_cache(maxsize=8)\ndef m(x):\n    return x\n")
    assert memo_faults(source) == [
        "f: CACHE", "g: CACHE", "g: OTHER", "g: TABLE", "h2: unbounded cache",
        "i: unbounded cache", "j: unbounded cache"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_memos_are_bounded_lru_caches(path):
    assert memo_faults(path.read_text()) == []


def definitions(source):
    """(names, node) for each module-level def, class and assignment."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield [node.name], node
        elif isinstance(node, ast.Assign):
            yield [t.id for t in node.targets
                   if isinstance(t, ast.Name)], node
        elif isinstance(node, ast.AnnAssign):
            yield [node.target.id], node


def route_reach(source, entry):
    """Module-level names (defs, classes, assignments; not imports) that
    `entry` reaches by following the names each definition loads."""
    loads = {}
    for names, node in definitions(source):
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in names:
            loads[name] = loads.get(name, set()) | read
    seen, todo = set(), [entry]
    while todo:
        name = todo.pop()
        if name in seen or name not in loads:
            continue
        seen.add(name)
        todo.extend(loads[name])
    return seen


def shared_route_names(source):
    return sorted(route_reach(source, "rubinstein_with_error")
                  & route_reach(source, "prediction_with_error"))


_KERNELS = (PACKAGE / "kernels.py").read_text()
_COMBINATORIAL_ENTRY = "def rubinstein_with_error(sign, phis):\n"


def test_route_scan_finds_a_planted_cycle_integral():
    assert _COMBINATORIAL_ENTRY in _KERNELS
    planted = _KERNELS.replace(_COMBINATORIAL_ENTRY, _COMBINATORIAL_ENTRY
                               + "    _j1(phis[0], sign)\n")
    assert "_j1" in shared_route_names(planted)


def test_determinant_and_combinatorial_routes_share_only_validation():
    assert shared_route_names(_KERNELS) == [
        "_check_supports", "default_betas"]


def route_attributes(source, entry):
    """Attribute names loaded anywhere in the definitions `entry` reaches."""
    reached = route_reach(source, entry)
    return {n.attr for names, node in definitions(source)
            if reached.intersection(names) for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


# each route reads its own side of a TestFunction; both may read beta and
# value_at_zero
_ROUTE_SIDES = {"prediction_with_error": {"value"},
                "rubinstein_with_error": {"fourier", "fourier_at_zero"}}


def foreign_reads(source):
    """Route entry -> the other route's TestFunction attributes it loads."""
    (det, det_side), (comb, comb_side) = _ROUTE_SIDES.items()
    return {det: sorted(route_attributes(source, det) & comb_side),
            comb: sorted(route_attributes(source, comb) & det_side)}


_J1_ENTRY = "def _j1(phi: TestFunction, eps: int):\n"


def test_attribute_scan_finds_a_planted_fourier_read():
    assert _J1_ENTRY in _KERNELS
    planted = _KERNELS.replace(_J1_ENTRY,
                               _J1_ENTRY + "    phi.fourier_at_zero\n")
    assert foreign_reads(planted)["prediction_with_error"] == [
        "fourier_at_zero"]


def test_each_route_reads_only_its_own_side_of_the_test_functions():
    for entry, side in _ROUTE_SIDES.items():
        assert side <= route_attributes(_KERNELS, entry), entry
    assert foreign_reads(_KERNELS) == {"prediction_with_error": [],
                                       "rubinstein_with_error": []}


def _bench_hooks():
    """(module, function name) for every binding bench/tracing.py hooks."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for hook in tracing.HOOKS:
        name, modules = hook[0], hook[2]
        func = hook[3] if len(hook) > 3 else name.rsplit(".", 1)[1]
        for modname in modules:
            yield modname, func


def test_bench_hooks_resolve():
    # a traced benchmark run rebinds every hooked function on every
    # module listed for it, so a name deleted from one breaks only there
    for modname, func in _bench_hooks():
        module = importlib.import_module(modname)
        assert callable(getattr(module, func, None)), (modname, func)


def package_reads(source):
    """(module, name) pairs that `source` reads off the package's modules:
    names it imports from one, and attributes of a name bound to one."""
    tree = ast.parse(source)
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "lowlying":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:  # from lowlying.kernels import name
                reads.update((parts[0], a.name) for a in node.names)
            else:  # from lowlying import kernels
                bound.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname, a.name.split(".")[1]) for a in node.names
                         if a.asname and a.name.startswith("lowlying."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            reads.add((bound[node.value.id], node.attr))
    return reads


def unread_exports(modules, outside_reads, names=exports):
    """"module.name" for each name `names` finds in a parsed module (its
    __all__ by default) that is not in `outside_reads` and that no module
    of `modules` (short name -> source) reads: its own module by name,
    another one through an import."""
    readers = set(outside_reads)
    for mod, source in modules.items():
        readers |= package_reads(source)
        readers |= {(mod, node.id) for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
    return sorted("%s.%s" % (mod, name) for mod, source in modules.items()
                  for name in names(ast.parse(source))
                  if (mod, name) not in readers)


_MODULES = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
_PLANTED_READERS = (
    "import lowlying.rng as R\nfrom lowlying import measures as M\n"
    "from . import hecke\nfrom .quadrature import panel_grid\n"
    "from os import path\nR.uniforms, M.integrate, hecke.analytic_conductor\n"
    "path.join, panel_grid\n")


def test_read_scan_resolves_each_import_form():
    assert package_reads(_PLANTED_READERS) == {
        ("rng", "uniforms"), ("measures", "integrate"),
        ("hecke", "analytic_conductor"), ("quadrature", "panel_grid")}


def test_export_scan_finds_a_planted_name():
    assert '__all__ = [\n    "TestFunction",\n' in _MODULES["kernels"]
    planted = dict(_MODULES, kernels=_MODULES["kernels"].replace(
        '__all__ = [\n', '__all__ = [\n    "ghost",\n'))
    assert "kernels.ghost" in unread_exports(planted, set())
    assert "kernels.ghost" not in unread_exports(planted,
                                                 {("kernels", "ghost")})
    planted["kernels"] += "ghost()\n"
    assert "kernels.ghost" not in unread_exports(planted, set())


def test_definition_scan_finds_a_planted_function():
    planted = dict(_MODULES, kernels=_MODULES["kernels"]
                   + "\n\ndef ghost():\n    pass\n\n\nclass _Shade:\n"
                   "    pass\n")
    assert "kernels.ghost" not in unread_exports(planted, set())
    found = unread_exports(planted, set(), public_definitions)
    assert "kernels.ghost" in found and "kernels._Shade" not in found
    assert "kernels.ghost" not in unread_exports(
        planted, {("kernels", "ghost")}, public_definitions)


def _outside_reads():
    """(module, name) pairs read outside the package and its tests: by the
    benchmark scripts and their hooks, and by the acceptance criteria."""
    outside = {(modname.rsplit(".", 1)[1], func)
               for modname, func in _bench_hooks()}
    for path in sorted(BENCH.glob("*.py")) + [
            pathlib.Path(__file__).parent / "test_acceptance.py"]:
        outside |= package_reads(path.read_text())
    return outside


# public names that nothing but tests reads; this list may only shrink
UNREAD_EXPORTS = []


def test_every_export_has_a_reader_outside_tests():
    # readers: the package's own code and `_outside_reads`
    assert unread_exports(_MODULES, _outside_reads()) == UNREAD_EXPORTS


# public module-level functions and classes, in __all__ or not, that
# nothing but tests reads; this list may only shrink
UNREAD_DEFINITIONS = []


def test_every_public_definition_has_a_reader_outside_tests():
    assert unread_exports(_MODULES, _outside_reads(),
                          public_definitions) == UNREAD_DEFINITIONS


def unread_fields(modules, outside_sources):
    """"Class.field" for each field of a dataclass in `modules` (short
    name -> source) that neither they nor `outside_sources` read as an
    attribute."""
    read = {node.attr
            for source in list(modules.values()) + list(outside_sources)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted("%s.%s" % (cls.name, stmt.target.id)
                  for source in modules.values()
                  for cls in ast.parse(source).body
                  if isinstance(cls, ast.ClassDef)
                  and any(_decorator_name(d) == "dataclass"
                          for d in cls.decorator_list)
                  for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                  and stmt.target.id not in read)


def test_field_scan_finds_a_planted_field():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "@dataclasses.dataclass\nclass B:\n    z: float\n"
              "class C:\n    w: int\n"
              "def f(a, b):\n    b.y = a.x\n")
    assert unread_fields({"m": source}, []) == ["A.y", "B.z"]
    assert unread_fields({"m": source}, ["print(b.z)\n"]) == ["A.y"]


# dataclass fields that nothing but tests reads; this list may only shrink
UNREAD_FIELDS = []


def test_every_dataclass_field_has_a_reader_outside_tests():
    outside = [path.read_text() for path in sorted(BENCH.glob("*.py")) + [
        pathlib.Path(__file__).parent / "test_acceptance.py"]]
    assert unread_fields(_MODULES, outside) == UNREAD_FIELDS


def _top_level_names(source):
    """Names a module binds at its top level: definitions, assignments
    and imports."""
    names = {name for names, _ in definitions(source) for name in names}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def constant_fields(modules):
    """"Class.field" for each field of a dataclass in `modules` (short
    name -> source) that every construction in them sets to one constant,
    counting the defaults it inherits.  A constant is an expression that
    loads no name but its module's top-level ones, such as a literal, a
    module-level name, or a call of a module-level class on literals."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    tops = {mod: _top_level_names(source) for mod, source in modules.items()}
    classes = {}  # name -> (field names, {field: default's constant})
    values = {}  # "Class.field" -> set of constants, None if not constant

    def constant(expr, mod):
        if all(n.id in tops[mod] for n in ast.walk(expr)
               if isinstance(n, ast.Name)):
            return ast.dump(expr)
        return None

    for mod, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and any(
                    _decorator_name(d) == "dataclass"
                    for d in cls.decorator_list):
                stmts = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
                classes[cls.name] = (
                    [s.target.id for s in stmts],
                    {s.target.id: constant(s.value, mod)
                     for s in stmts if s.value is not None})
    for mod, tree in trees.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in classes:
                continue
            fields, defaults = classes[name]
            given = dict(zip(fields, call.args))
            given.update((k.arg, k.value) for k in call.keywords)
            opaque = None in given or any(isinstance(a, ast.Starred)
                                          for a in call.args)
            for field in fields:
                key = "%s.%s" % (name, field)
                if opaque:
                    value = None
                elif field in given:
                    value = constant(given[field], mod)
                else:
                    value = defaults.get(field)
                values.setdefault(key, set()).add(value)
    return sorted(key for key, seen in values.items()
                  if len(seen) == 1 and None not in seen)


def test_constant_field_scan_finds_planted_fields():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "from .x import Shape\nNOTE = 'n'\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    note: str\n"
        "    shape: object = Shape(4, 3)\n    y: int = 0\n    z: int = 0\n"
        "@dataclasses.dataclass\nclass B:\n    u: int\n"
        "@dataclass\nclass C:\n    v: int\n"
        "def f(v, args, kw):\n    A(v, NOTE, z=1)\n"
        "    m.A(x=2, note=NOTE, y=v, z=1)\n"
        "    B(*args)\n    B(u=1)\n    C(**kw)\n    C(1)\n"
        "    return A(v, 'n' if v else NOTE, z=1)\n")
    assert constant_fields({"m": source}) == ["A.shape", "A.z"]
    assert constant_fields({"m": source.replace(
        "'n' if v else NOTE", "NOTE")}) == ["A.note", "A.shape", "A.z"]


# dataclass fields that every construction in the package sets to one
# constant; this list may only stay empty
CONSTANT_FIELDS = []


def test_no_dataclass_field_holds_one_constant():
    assert constant_fields(_MODULES) == CONSTANT_FIELDS


# the exit-2 and exit-3 types of the CLI, and the exit-3 subclass that
# carries a quadrature estimate; ValueError is the library's exit-2 type
_EXCEPTION_CLASSES = ["NumericFailure", "QuadratureError", "UsageError"]
_RAISED = {"ValueError", *_EXCEPTION_CLASSES}
_BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                       if isinstance(obj, type)
                       and issubclass(obj, BaseException)}


def _last_name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def exception_classes(modules):
    """Classes that `modules` (short name -> source) derive from a
    built-in exception, directly or through one another."""
    classes = [node for source in modules.values()
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    found, size = set(), -1
    while len(found) != size:
        size = len(found)
        found |= {c.name for c in classes if any(
            _last_name(b) in found | _BUILTIN_EXCEPTIONS for b in c.bases)}
    return sorted(found)


def foreign_raises(modules):
    """"module:line name" for each raise in `modules` of a name outside
    _RAISED.  A bare re-raise names nothing, and __main__ may raise
    SystemExit."""
    out = []
    for mod, source in modules.items():
        allowed = _RAISED | ({"SystemExit"} if mod == "__main__" else set())
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if _last_name(exc) not in allowed:
                    out.append("%s:%d %s" % (mod, node.lineno,
                                             _last_name(exc)))
    return sorted(out)


def test_exception_scan_finds_planted_classes_and_raises():
    source = ("import builtins\nclass Bad(KeyError):\n    pass\n"
              "class Worse(Bad):\n    pass\nclass Plain:\n    pass\n"
              "class Mixed(Plain, builtins.ArithmeticError):\n    pass\n"
              "def f(x):\n    if x:\n        raise Worse('w')\n"
              "    try:\n        raise ValueError('v') from None\n"
              "    except ValueError:\n        raise\n"
              "    raise RuntimeError\n")
    planted = {"m": source, "__main__": "raise SystemExit(0)\n",
               "n": "raise SystemExit(1)\n"}
    assert exception_classes(planted) == ["Bad", "Mixed", "Worse"]
    assert foreign_raises(planted) == [
        "m:12 Worse", "m:17 RuntimeError", "n:1 SystemExit"]


def test_package_defines_only_the_contract_exceptions():
    assert exception_classes(_MODULES) == _EXCEPTION_CLASSES


def test_every_raise_names_a_contract_exception():
    assert foreign_raises(_MODULES) == []
