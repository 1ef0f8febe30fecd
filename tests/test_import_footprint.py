"""Which modules the package loads, checked in fresh interpreters, which
names it exports, that every public name has a caller, and that every
import in it is used.

The package needs numpy only: no code path, from ``import photoncorr.cli``
through ``simulate`` and ``fit --bootstrap``, imports any scipy module,
and both commands run with scipy unimportable.
"""

import ast
import glob
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
        "fit = fit_stage2(counts, stage1, FitConfig(n_max=20))\n"
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


# Public names that stay without a caller in the package, the bench or the
# acceptance criteria, each with its reason.
UNCALLED_ON_PURPOSE = {
    # The event-level detection reference that tests/test_detector.py
    # compares the composed channel against.
    "detect_count",
}


def _reads(tree) -> set[str]:
    """Every name the tree reads, as a ``Name`` or as an ``Attribute``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # A public function or class counts as called when the package reads it
    # outside its own definition, or the bench or the acceptance criteria
    # read it. Unit tests alone do not keep a name in the package.
    root = os.path.dirname(SRC)
    callers = [os.path.join(root, "tests", "test_acceptance.py")]
    callers += glob.glob(os.path.join(root, "bench", "*.py"))
    read = set()
    for path in callers:
        with open(path) as handle:
            read |= _reads(ast.parse(handle.read()))
    defined = {}
    for path in sorted(glob.glob(os.path.join(SRC, "photoncorr", "*.py"))):
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            names = _reads(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined[node.name] = os.path.basename(path)
            read |= names
    uncalled = sorted(f"{module}:{name}" for name, module in defined.items()
                      if name not in read and name not in UNCALLED_ON_PURPOSE)
    assert uncalled == [], uncalled
