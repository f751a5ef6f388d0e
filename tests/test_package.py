"""Package surface: every name a module exports exists on it, importing the
package loads no module, settable values do not grow, no module imports a
name it never uses, the tests import only declared dependencies, and each
discriminator carries the one generator its consumers use."""

import ast
import copy
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import season
from season.discriminator import grads, init_discriminator
from season.distributions import GaussianMixture, OUSchedule
from season.errors import DomainError
from season.generators import get_generator
from season.refine import refine_continuous, solve_lambda
from season.samplers import ReverseDiffusionConfig, reverse_em

MODULES = [f"season.{m.name}" for m in pkgutil.iter_modules(season.__path__)]

# The benchmark's tracer and workloads pass gen to these by position, so they
# keep it until the next change to the benchmark; every other consumer reads
# disc.generator.
PINNED = {"discriminator.grads", "refine.solve_lambda", "refine.refine_continuous",
          "samplers.reverse_em"}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_import_loads_no_submodule():
    # a fresh interpreter: this test session has loaded every module already
    src = Path(season.__file__).resolve().parents[1]
    code = "import sys, season; print(sorted(m for m in sys.modules if m.startswith('season.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def _defaults(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _has_default(item: ast.AnnAssign) -> bool:
    """A plain value, or a field(...) call given default= or default_factory=."""
    value = item.value
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return value is not None


def _settable_values(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    count += _defaults(item)
                elif (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                      and _has_default(item)
                      and not ast.unparse(item.annotation).startswith("ClassVar")):
                    count += 1
    for call in ast.walk(tree):
        if (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument"
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value.startswith("--")):
            count += 1
    return count


def test_settable_values_do_not_grow():
    """Settable values: defaulted parameters of public functions and methods,
    defaulted non-ClassVar fields of public dataclasses, and CLI --flags.

    Each one doubles the configurations that tests and benchmarks must cover.
    A change that adds one raises BOUND here and justifies the value in
    CHANGES.md; a change that removes one lowers BOUND.
    """
    BOUND = 72
    src = Path(season.__file__).resolve().parent
    total = sum(_settable_values(ast.parse(path.read_text())) for path in src.glob("*.py"))
    assert total <= BOUND


# Imported names that their module never uses, each with the reader that needs it.
UNUSED_IMPORTS = {
    "samplers.input_grad",  # bench/test_bench.py checks that tracing puts it back
}


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names the module binds by import but never reads and does not list in __all__."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    src = Path(season.__file__).resolve().parent
    unused = {f"{path.stem}.{name}" for path in src.glob("*.py")
              for name in _unused_imports(ast.parse(path.read_text()))}
    assert unused == UNUSED_IMPORTS


def test_third_party_test_imports_are_declared():
    """Every third-party top-level import under tests/ is in `dependencies` or
    the `test` extra, so that `pip install .[test]` collects every test file."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    local = {"season", *(path.stem for path in tests)}
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - local - declared == set()


def _body_key(fn: ast.FunctionDef) -> str:
    """fn's body without its docstring, as an AST dump with argument names numbered."""
    args = fn.args
    params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
    numbered = {a.arg: f"_arg{i}" for i, a in enumerate(p for p in params if p is not None)}

    class Rename(ast.NodeTransformer):
        def visit_Name(self, node):
            return ast.Name(numbered.get(node.id, node.id), node.ctx)

    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return ast.dump(ast.Module([Rename().visit(copy.deepcopy(stmt)) for stmt in body], []))


def test_no_two_functions_share_a_body():
    """Two defs under src/season with one body, up to argument names, are one
    function written twice; lambdas are left out."""
    src = Path(season.__file__).resolve().parent
    seen, duplicates = {}, []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{path.stem}.{node.name}"
                key = _body_key(node)
                if key in seen:
                    duplicates.append((seen[key], name))
                else:
                    seen[key] = name
    assert duplicates == []


def _public_callables(module):
    """(name, callable) for the module's own public functions, classes and methods."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_only_pinned_signatures_take_a_generator_next_to_a_discriminator():
    both = set()
    for layer in ("refine", "metrics", "samplers", "discriminator"):
        module = importlib.import_module(f"season.{layer}")
        for name, fn in _public_callables(module):
            params = inspect.signature(fn).parameters
            if "gen" in params and {"disc", "discs"} & params.keys():
                both.add(f"{layer}.{name}")
    assert both == PINNED


KL, JS = get_generator("kl"), get_generator("js_shifted")
X = np.linspace(-1.0, 1.0, 8)[:, None]
CFG = ReverseDiffusionConfig(schedule=OUSchedule(1.0, 1.0), K=2, n_chains=4)
MODEL = GaussianMixture([[0.0]], [[[1.0]]], [1.0])


@pytest.mark.parametrize("gen, call", [
    (KL, lambda disc, gen: grads(disc, gen, X, X)),
    (KL, lambda disc, gen: solve_lambda(disc, gen, X)),
    (KL, lambda disc, gen: refine_continuous(MODEL, disc, gen, n_mc=16)),
    (KL, lambda disc, gen: reverse_em(lambda x, k: -x, CFG, gen, [disc] * CFG.K)),
    (None, lambda disc, gen: reverse_em(lambda x, k: -x, CFG, gen, [disc] * CFG.K)),
], ids=["grads", "solve_lambda", "refine_continuous", "reverse_em", "reverse_em-no-gen"])
def test_pinned_gen_other_than_the_discriminators_raises(gen, call):
    disc = init_discriminator(JS, 1, 4, seed=0)
    shown = "kl" if gen is not None else None
    with pytest.raises(DomainError, match=f"generator {shown!r} does not match the "
                                          "discriminator's generator 'js_shifted'"):
        call(disc, gen)
    call(disc, JS)  # the discriminator's own generator passes
