"""Guard against public API that only its own unit tests reach, private
helpers nothing calls, and imports nothing uses.

A public top-level function or class of a visblock module must be used by
other package code (outside its own definition) or by the acceptance gate;
being exported in `visblock.__all__` is not enough. A private one must be
used by other package code. Every name a package or test module imports must
be referenced in that module. Every per-layer metric of the benchmark
must name a public function the package still defines, and every count
the benchmark's tracer reads off a result must still be there. No function
of the search engine calls itself: its searches run on explicit stacks,
and none takes a vertex count: a graph's size is its adjacency list's length.
A budget turns into a deadline once, as the first statement of the
function that takes it. The package imports nothing but the standard
library and itself, and no JSON write in it takes an indent, which would
send it to the pure-Python encoder. No module but `errors.py` words a JSON
type error itself. No invariant is a bare assert, which `python -O` strips.
No two package functions share three consecutive identical lines of more
than 12 characters, counting only each function's own code: not its
docstring, comments or nested functions.
"""

import ast
import importlib
import importlib.util
import json
import re
import sys
from itertools import combinations
from pathlib import Path

import visblock
from visblock.blocking import candidate_blockers, min_blocking_set
from visblock.cli import ExperimentConfig, run
from visblock.crossing import regular_ngon_multiplicity
from visblock.generators import GeneratorSpec, convex_parabola_set
from visblock.geometry import lines_of

PACKAGE = Path(visblock.__file__).parent
TESTS = Path(__file__).parent
ACCEPTANCE = TESTS / "test_acceptance.py"
BENCHMARK = TESTS.parent / "BENCHMARK.json"
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def _referenced_names(tree) -> set[str]:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _unreferenced(private: bool) -> list[tuple[str, str]]:
    """(module, name) of the top-level functions and classes, private or
    public, that no other package code references."""
    nodes = [
        (p.stem, node)
        for p in sorted(PACKAGE.glob("*.py"))
        if p.stem != "__init__"
        for node in ast.parse(p.read_text()).body
    ]
    refs = [_referenced_names(node) for _, node in nodes]
    return [
        (module, node.name)
        for i, (module, node) in enumerate(nodes)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and not any(node.name in r for j, r in enumerate(refs) if j != i)
    ]


def test_every_public_name_is_reached_outside_its_unit_tests():
    allowed = _referenced_names(ast.parse(ACCEPTANCE.read_text()))
    unreached = [f"{m}.{name}" for m, name in _unreferenced(private=False) if name not in allowed]
    assert not unreached, f"public names reached only from unit tests: {unreached}"


def test_every_private_name_is_used_by_package_code():
    unused = [f"{m}.{name}" for m, name in _unreferenced(private=True)]
    assert not unused, f"private names no package code references: {unused}"


def test_no_search_in_cliques_recurses():
    # a recursive search fails at the recursion limit, not at its budget
    tree = ast.parse((PACKAGE / "cliques.py").read_text())
    recursive = sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == fn.name
    )
    assert not recursive, f"functions in cliques.py that call themselves: {recursive}"


def test_no_function_in_cliques_takes_a_vertex_count():
    # a count passed beside the adjacency list can disagree with its length
    tree = ast.parse((PACKAGE / "cliques.py").read_text())
    counted = sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.arg == "n"
    )
    assert not counted, f"functions in cliques.py with a parameter n: {counted}"


def test_a_budget_is_read_once_at_the_start():
    # a budget starts when the call that takes it starts: each _deadline
    # call is the first statement of its function (after a docstring), and
    # the searches and the graph statistics below take that deadline
    late, budgeted = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        first_calls = set()
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            first = fn.body[1 if ast.get_docstring(fn) is not None and len(fn.body) > 1 else 0]
            value = getattr(first, "value", None)  # of an assignment, expression or return
            if value is not None:
                first_calls.update(id(node) for node in ast.walk(value))
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if (path.stem in ("cliques", "visibility") and fn.name != "_deadline"
                    and "budget_ms" in [a.arg for a in args]):
                budgeted.append(f"{path.stem}.{fn.name}")
        late += [
            f"{path.name}:{call.lineno}"
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "_deadline" and id(call) not in first_calls
        ]
    assert not late, f"_deadline calls that are not the first statement of their function: {late}"
    assert not budgeted, f"functions below the tasks that take a budget, not a deadline: {budgeted}"


def test_every_exported_name_resolves():
    missing = [name for name in visblock.__all__ if not hasattr(visblock, name)]
    assert not missing, f"names in visblock.__all__ the package does not define: {missing}"


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set(visblock.__all__) if path == PACKAGE / "__init__.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and name not in exported:
                        unused.append(f"{path.parent.name}/{path.name}: {name}")
    assert not unused, f"imported but never used: {unused}"


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"visblock"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: the package
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert not foreign, f"imports outside the standard library: {foreign}"


def _indented_json_writes(source: str) -> list[int]:
    """The lines of json.dump and json.dumps calls in source that pass an
    indent, or unpacked keywords that may hold one."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update(a.asname or a.name for a in node.names if a.name in ("dump", "dumps"))
    lines = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        writes = (isinstance(f, ast.Name) and f.id in functions) or (
            isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
            and isinstance(f.value, ast.Name) and f.value.id in modules)
        if writes and any(k.arg in ("indent", None) for k in call.keywords):
            lines.append(call.lineno)
    return lines


def test_no_json_write_takes_an_indent():
    # cli._dumps writes the indented text itself, at the C encoder's speed
    found = [f"{p.name}:{line}" for p in sorted(PACKAGE.glob("*.py"))
             for line in _indented_json_writes(p.read_text())]
    assert not found, f"json.dump(s) calls with an indent: {found}"
    assert _indented_json_writes(
        "import json\nimport json as j\nfrom json import dumps as d\n"
        "json.dumps(x, indent=2)\nj.dump(x, f, **kw)\nd(x, sort_keys=True, indent=1)\n"
        "json.dumps(x, sort_keys=True)\njson.loads(s)\n"
    ) == [4, 5, 6]


def _own_lines(fn, lines: list[str]) -> list[str]:
    """The stripped lines of fn's body, without its docstring, its nested
    functions and classes, comments and blank lines."""
    skip = set()
    if ast.get_docstring(fn) is not None:
        skip.update(range(fn.body[0].lineno, fn.body[0].end_lineno + 1))
    for node in ast.walk(fn):
        if node is not fn and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skip.update(range(first, node.end_lineno + 1))
    own = (lines[i - 1].strip() for i in range(fn.body[0].lineno, fn.end_lineno + 1) if i not in skip)
    return [line for line in own if line and not line.startswith("#")]


def _shared_runs(sources: dict[str, str]) -> list[tuple[str, str]]:
    """The pairs of functions, named file:function, whose own lines share
    three consecutive identical lines of more than 12 characters each."""
    holders: dict[tuple[str, ...], set[str]] = {}
    for name, source in sources.items():
        lines = source.splitlines()
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = _own_lines(fn, lines)
                for i in range(len(own) - 2):
                    run = tuple(own[i:i + 3])
                    if min(map(len, run)) > 12:
                        holders.setdefault(run, set()).add(f"{name}:{fn.name}")
    return sorted({pair for fns in holders.values() for pair in combinations(sorted(fns), 2)})


SHARED_RUNS = '''
def a(mask):
    total = first_value(mask)
    mask ^= low_bit(mask)
    return total + 1

def b(mask):
    """One line."""
    total = first_value(mask)
    # a comment between two of the lines
    mask ^= low_bit(mask)

    return total + 1

def c(mask):
    """
    total = first_value(mask)
    mask ^= low_bit(mask)
    return total + 1
    """
    def inner(mask):
        total = first_value(mask)
        mask ^= low_bit(mask)
        return total + 1
    return inner

def d(mask):
    total = first_value(mask)
    mask ^= 1
    return total + 1

def e(mask):
    total = first_value(mask)
    mask ^= 1
    return total + 1
'''


def test_no_function_repeats_another():
    # a walk or a loop written out twice is a helper duplicated
    found = _shared_runs({p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))})
    assert not found, f"functions sharing three lines: {found}"
    # comments and blank lines do not part a run; docstrings and nested
    # functions are not their enclosing function's lines; d and e share
    # a line too short to count
    assert _shared_runs({"m.py": SHARED_RUNS}) == [
        ("m.py:a", "m.py:b"), ("m.py:a", "m.py:inner"), ("m.py:b", "m.py:inner")]


def test_benchmark_layer_names_resolve():
    # a `<module>.<function>.<metric>` name is traced by wrapping that function
    names = [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = sorted({(parts[0], parts[1]) for parts in names if len(parts) == 3})
    assert functions
    missing = []
    for module, name in functions:
        fn = getattr(importlib.import_module(f"visblock.{module}"), name, None)
        if (name.startswith("_") or not callable(fn)
                or getattr(fn, "__module__", None) != f"visblock.{module}"):
            missing.append(f"{module}.{name}")
    assert not missing, f"benchmark names no public function of its module: {missing}"
    # the benchmark empties this cache between passes
    assert callable(getattr(importlib.import_module("visblock.crossing").cyclotomic, "cache_clear", None))


def test_benchmark_tracer_reads_real_results(tmp_path):
    # perfbench/tracer.py reads counts off the results of a few functions;
    # each reader must still find an int for every count it declares
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    ps = convex_parabola_set(5)
    calls = {
        "geometry.lines_of": lambda: lines_of(ps),
        "blocking.candidate_blockers": lambda: candidate_blockers(ps),
        "blocking.min_blocking_set": lambda: min_blocking_set(ps),
        "crossing.regular_ngon_multiplicity": lambda: regular_ngon_multiplicity(6),
        "cli.run": lambda: run(ExperimentConfig(GeneratorSpec("grid", {"w": 2, "h": 2}),
                                                ("visgraph",), output_dir=str(tmp_path))),
    }
    readers = {name: extra for name, extra in tracer.EXTRAS.items() if extra[1] is not None}
    assert sorted(readers) == sorted(calls)
    for name, (counts, read) in readers.items():
        got = read(calls[name]())
        assert sorted(got) == sorted(counts), name
        assert all(type(v) is int for v in got.values()), (name, got)


def test_json_type_errors_are_worded_in_errors_only():
    # every type check of outside JSON goes through errors._expect
    wording = re.compile(r"must be (an integer|an object|a list|a string|a boolean), got")
    found = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "errors.py" and wording.search(p.read_text())]
    assert not found, f"modules that word a JSON type error themselves: {found}"


def test_no_bare_assert_in_the_package():
    # an invariant raises AssertionError itself, so `python -O` keeps it
    found = [f"{p.name}:{node.lineno}" for p in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
