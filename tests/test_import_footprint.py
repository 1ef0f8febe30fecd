"""Which modules the package loads, checked in fresh interpreters, which
names it exports, that every public name has a caller, and that every
import in it is used.

The package needs numpy only: no code path, from ``import photoncorr.cli``
through ``simulate`` and ``fit --bootstrap``, imports any scipy module,
and both commands run with scipy unimportable.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import photoncorr

SRC = os.path.dirname(os.path.dirname(os.path.abspath(photoncorr.__file__)))
# The code a fresh interpreter runs to list the scipy modules it has loaded.
LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _run(code: str):
    """Run ``code`` in a fresh interpreter and return the JSON it prints."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy_submodule():
    loaded = _run(
        "import json, sys\n"
        "import photoncorr.cli\n"
        f"print(json.dumps({LOADED_SCIPY}))\n"
    )
    assert loaded == []


def _simulate_then_fit(tmp_path, prelude: str = "") -> str:
    """Code that runs ``simulate``, then ``fit --bootstrap 10``, through
    ``cli.main`` on a small config, after ``prelude``, and prints both
    exit codes and the scipy modules loaded, as JSON."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "source": {"mean_photons": 1.0, "correlation": 0.5},
        "detector_h": {"efficiency": 0.7, "dark_mean": 0.02, "crosstalk": 0.05},
        "detector_v": {"efficiency": 0.65, "dark_mean": 0.03, "crosstalk": 0.04},
        "shots": 20000, "seed": 3, "n_max": 10, "fit": {"n_max": 20},
    }))
    sim, fit = str(tmp_path / "sim"), str(tmp_path / "fit")
    counts = os.path.join(sim, "counts.csv")
    return (
        "import contextlib, io, json, sys\n"
        f"{prelude}"
        "from photoncorr.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['simulate', '--config', {str(config)!r}, '--out', {sim!r}]),\n"
        f"             main(['fit', {counts!r}, '--config', {str(config)!r},\n"
        f"                   '--bootstrap', '10', '--out', {fit!r}])]\n"
        f"print(json.dumps([codes, {LOADED_SCIPY}]))\n"
    )


def test_simulate_and_fit_load_no_scipy_module(tmp_path):
    codes, loaded = _run(_simulate_then_fit(tmp_path))
    assert codes == [0, 0]
    assert loaded == []


def test_simulate_and_fit_run_with_scipy_blocked(tmp_path):
    # A None entry in sys.modules makes every import of scipy, or of any
    # of its submodules, raise ImportError.
    codes, loaded = _run(_simulate_then_fit(tmp_path, "sys.modules['scipy'] = None\n"))
    assert codes == [0, 0]
    assert loaded == ["scipy"]


def test_fit_stage2_loads_no_scipy_submodule():
    result = _run(
        "import json, sys\n"
        "from photoncorr import DetectorParams, FitConfig, SimConfig, SourceParams\n"
        "from photoncorr import Stage1Result, fit_stage2, simulate\n"
        "det = DetectorParams(efficiency=0.7, dark_mean=0.02, crosstalk=0.05)\n"
        "counts = simulate(SimConfig(SourceParams(1.0, 0.5), det, det,\n"
        "                            shots=20000, seed=3, n_max=10))\n"
        "stage1 = Stage1Result(0.7, 0.7, 0.02, 0.02, 0.05, 0.05, 0.0)\n"
        "fit = fit_stage2(counts, stage1, FitConfig())\n"
        f"print(json.dumps([{LOADED_SCIPY}, fit.source.correlation]))\n"
    )
    loaded, g = result
    assert loaded == []
    assert 0.0 <= g <= 1.0


def test_every_exported_name_resolves():
    # A stale ``__all__`` entry breaks only ``from photoncorr import *``.
    assert [name for name in photoncorr.__all__ if not hasattr(photoncorr, name)] == []


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name listed in ``__all__`` counts as read; ``__future__`` imports
    bind nothing.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unused_import_check_sees_unread_names():
    source = "from __future__ import annotations\nimport os, sys\nimport a.b\n" \
             "from x import y as z, w\n__all__ = ['w']\nprint(sys)\n"
    assert _unused_imports(source) == ["os", "a", "z"]


def test_every_module_import_is_used():
    unused = {}
    for path in sorted(glob.glob(os.path.join(SRC, "photoncorr", "*.py"))):
        with open(path) as handle:
            names = _unused_imports(handle.read())
        if names:
            unused[os.path.basename(path)] = names
    assert unused == {}


def _resolve(value):
    """``(module, name)`` of a package function or class, else None."""
    module = getattr(value, "__module__", None) or ""
    if callable(value) and module.startswith("photoncorr"):
        return module, value.__qualname__
    return None


def _imported(tree, package: str | None) -> dict:
    """What every import in the tree binds: a module object, or a resolved name.

    Imports anywhere in the tree count, function-level ones included; a
    relative import resolves against ``package``. Names outside the
    package are left out.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "photoncorr":
                    value = importlib.import_module(alias.name)
                    bound[alias.asname or "photoncorr"] = value if alias.asname \
                        else importlib.import_module("photoncorr")
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package) \
                if node.level else node.module
            if base.split(".")[0] != "photoncorr":
                continue
            for alias in node.names:
                try:
                    value = importlib.import_module(f"{base}.{alias.name}")
                except ModuleNotFoundError:
                    value = getattr(importlib.import_module(base), alias.name)
                bound[alias.asname or alias.name] = value if inspect.ismodule(value) \
                    else _resolve(value)
    return bound


def _function_locals(function) -> set[str]:
    """Names a function binds: its arguments and every name it stores."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    return names | {n.id for n in ast.walk(function)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _references(source: str, module: str | None = None) -> set:
    """The package functions and classes that the source reads, as ``(module, name)``.

    A read counts when it resolves to the object it names: a name an
    import bound, an attribute chain from an imported module, or, inside
    ``module`` itself, one of its own top-level definitions read outside
    that definition and not shadowed by a local of the enclosing function.
    A same-named local variable, parameter or other module's function is
    no caller.
    """
    tree = ast.parse(source)
    package = module.rpartition(".")[0] if module else None
    bound = _imported(tree, package)
    own = {}
    if module is not None:
        own = {node.name: (module, node.name) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = set()

    def visit(node, shadowed, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            shadowed = shadowed | _function_locals(node)
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and inspect.ismodule(bound.get(node.id)):
                value = bound[node.id]
                for attr in reversed(chain):
                    value = getattr(value, attr, None)
                    if not inspect.ismodule(value):
                        break
                if _resolve(value) is not None:
                    found.add(_resolve(value))
            visit(node, shadowed, defining)  # the chain's innermost value
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                if isinstance(bound.get(node.id), tuple):
                    found.add(bound[node.id])
                elif node.id in own and node.id != defining:
                    found.add(own[node.id])
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed, defining)

    for node in tree.body:
        visit(node, frozenset(), getattr(node, "name", None))
    return found


def test_reference_check_resolves_names():
    # A parameter named like a package function, an attribute of an
    # unknown object, another module's function of the same name and a
    # definition's read of itself are no callers.
    source = (
        "import photoncorr.inference as inf\n"
        "from photoncorr import cli\n"
        "from photoncorr.montecarlo import normalize as norm\n"
        "def read_counts(path):\n"
        "    return path\n"
        "def f(moments, x):\n"
        "    return moments, x.bootstrap, read_counts(1), norm, inf.fit_counts, cli.main\n"
        "def g():\n"
        "    return g, h.__doc__\n"
        "def h():\n"
        "    pass\n"
    )
    assert _references(source) == {
        ("photoncorr.montecarlo", "normalize"),
        ("photoncorr.inference", "fit_counts"),
        ("photoncorr.cli", "main"),
    }
    own = _references(source, "photoncorr.example")
    assert ("photoncorr.example", "read_counts") in own
    assert ("photoncorr.example", "h") in own
    assert ("photoncorr.example", "g") not in own


def test_every_public_name_has_a_caller():
    # A public function or class counts as called when the package reads it
    # outside its own definition, or the bench or the acceptance criteria
    # read it. Unit tests alone do not keep a name in the package.
    root = os.path.dirname(SRC)
    sources = [(path, None) for path in glob.glob(os.path.join(root, "bench", "*.py"))]
    sources.append((os.path.join(root, "tests", "test_acceptance.py"), None))
    defined = set()
    for path in sorted(glob.glob(os.path.join(SRC, "photoncorr", "*.py"))):
        # The package's own __init__ is "photoncorr.__init__" here, so that
        # its relative imports resolve against the package.
        module = f"photoncorr.{os.path.splitext(os.path.basename(path))[0]}"
        sources.append((path, module))
        with open(path) as handle:
            defined |= {(module, node.name) for node in ast.parse(handle.read()).body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")}
    read = set()
    for path, module in sources:
        with open(path) as handle:
            read |= _references(handle.read(), module)
    uncalled = sorted(f"{module}:{name}" for module, name in defined - read)
    assert uncalled == [], uncalled
