"""Which modules the package loads, checked in fresh interpreters, which
names it exports, and that every import in it is used.

``import photoncorr.cli`` pulls in the whole package, so it must load
numpy only: ``scipy.optimize`` is imported by ``fit_stage1`` when it
first runs, stage 2 never loads it, and nothing uses ``scipy.stats`` or
``scipy.special``.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import photoncorr

SRC = os.path.dirname(os.path.dirname(os.path.abspath(photoncorr.__file__)))
SCIPY_MODULES = ("scipy.stats", "scipy.special", "scipy.optimize")


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
        f"print(json.dumps([m for m in {SCIPY_MODULES!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_fit_stage1_imports_optimizer_on_first_use():
    result = _run(
        "import json, sys\n"
        "from photoncorr import DetectorParams, FitConfig, SimConfig, SourceParams\n"
        "from photoncorr import fit_stage1, simulate\n"
        "det = DetectorParams(efficiency=0.7, dark_mean=0.02, crosstalk=0.05)\n"
        "counts = simulate(SimConfig(SourceParams(1.0, 0.5), det, det,\n"
        "                            shots=20000, seed=3, n_max=10))\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "stage1 = fit_stage1(counts, FitConfig(n_max=20))\n"
        "print(json.dumps([before, 'scipy.optimize' in sys.modules,\n"
        "                  stage1.detected_mean_h, stage1.residual]))\n"
    )
    before, after, detected_mean_h, residual = result
    assert not before and after
    assert 0.0 < detected_mean_h < 5.0 and residual >= 0.0


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
        f"print(json.dumps([[m for m in {SCIPY_MODULES!r} if m in sys.modules],\n"
        "                  fit.source.correlation]))\n"
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
