"""Which modules the package loads, checked in fresh interpreters.

``import photoncorr.cli`` pulls in the whole package, so it must load
numpy only: ``scipy.optimize`` is imported by the fit functions when they
first run, and nothing uses ``scipy.stats`` or ``scipy.special``.
"""

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
