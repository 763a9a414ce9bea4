"""Every module-level function and class of ``src/entbath`` earns its place:
another part of the package, a benchmark workload or the exported API names
it.  Code that only the tests call belongs in the tests."""

import ast
import pathlib
import sys
from collections import Counter

import entbath

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entbath"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _names(node: ast.AST) -> Counter:
    """How often each name and attribute is read under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_src_has_no_test_only_functions_or_classes():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    outside = set(_names(ast.parse(WORKLOADS.read_text(encoding="utf-8")))) | set(entbath.__all__)
    unused = [
        f"{fname}:{node.name}"
        for fname, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in outside
        # named only inside its own definition (recursion, its own methods)
        and in_src[node.name] == _names(node)[node.name]
    ]
    assert not unused, f"named only by the tests: {unused}"


def test_src_reads_every_name_it_imports():
    # the package's __init__ imports to re-export; every other module imports to read
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [
            f"{path.name}:{bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert not unread, f"imported and never read: {unread}"


# the import names of the runtime dependencies in pyproject.toml; scipy,
# mpmath and hypothesis are test extras that src/ must not need
RUNTIME_IMPORTS = {"numpy", "yaml"}


def test_src_imports_only_the_standard_library_and_its_runtime_dependencies():
    imported, foreign = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one of the package's own modules
                continue
            for name in names:
                top = name.split(".")[0]
                imported.add(top)
                if top not in sys.stdlib_module_names | RUNTIME_IMPORTS | {"entbath"}:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert RUNTIME_IMPORTS <= imported, "the guard saw no runtime dependency: it checks nothing"
    assert not foreign, foreign


# each refusal rule has one owner module, the only one that raises its error
# (an unstable configured system is the scenario's ConfigError, not a second
# raiser of the drift's UnstableHamiltonianError)
RAISE_OWNERS = {"StepSizeError": "moments.py", "RecurrenceWindowError": "bath.py",
                "UnstableHamiltonianError": "exact.py"}


def _raised(exc: ast.expr) -> str | None:
    target = exc.func if isinstance(exc, ast.Call) else exc
    return getattr(target, "id", getattr(target, "attr", None))


def test_each_refusal_is_raised_by_its_owner_only():
    sites = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        and (name := _raised(node.exc)) in RAISE_OWNERS
    }
    assert sites == {(owner, name) for name, owner in RAISE_OWNERS.items()}, sites


def test_every_random_draw_in_src_is_seeded():
    # an artifact must not vary from run to run: every generator is
    # np.random.default_rng of an int literal, or of a module constant bound
    # to one, and no legacy global np.random draw or stdlib random appears
    draws, unseeded = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fixed = {
            target.id
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                names += [alias.name for alias in node.names]
                unseeded += [f"{path.name}: import {name}" for name in names
                             if name == "random" or name.startswith("numpy.random")]
            elif (isinstance(node, ast.Attribute) and node.attr != "default_rng"
                  and getattr(node.value, "attr", None) == "random"):
                unseeded.append(f"{path.name}:{node.lineno} random.{node.attr}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "default_rng":
                draws.append(f"{path.name}:{node.lineno}")
                seed = node.args[0] if len(node.args) == 1 and not node.keywords else None
                if not ((isinstance(seed, ast.Constant) and type(seed.value) is int)
                        or (isinstance(seed, ast.Name) and seed.id in fixed)):
                    unseeded.append(f"{path.name}:{node.lineno} default_rng")
    assert draws, "no generator found: the guard checks nothing"
    assert not unseeded, unseeded
