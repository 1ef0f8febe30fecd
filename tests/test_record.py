"""The fit's outputs on five inputs, recorded in ``tests/data/record.json``.

The inputs are the fit-bootstrap benchmark's histograms at seeds 1, 29
and 41 (reference detectors, 10^6 shots) and criterion 4's histograms at
g = 0.06 and 0.47 (FIT detectors, 10^6 shots). Each is fitted by
``fit_counts`` with 100 bootstrap resamples; a benchmark input at the
benchmark's bootstrap seed. Per input the record holds:

- the SHA-256 of ``counts_to_text`` of the simulated histogram, which
  pins the Monte Carlo's random stream;
- stage 1's six parameters, its evaluations and its ``at_bound``;
- the fit's ``g``, mean, ``nu``, residual, ``g_error``, ``nu_error``,
  ``distance_error``, evaluations and ``at_bound``;
- the correlated-term passes of the stage-2 batch (calls of
  ``inference._correlated_term``) and the points they built.

Floats are compared to 1e-6 relative; hashes, counts and names exactly.
A change that moves a value rewrites the record by running this file,
``PYTHONPATH=src python tests/test_record.py``, and says which values
moved, by how much and why. Floats are written to 12 significant digits,
so the record's diff shows only values that moved beyond rounding.
"""

import hashlib
import json
import math
import pathlib
from unittest import mock

import pytest

import photoncorr.inference as inference
from photoncorr import FitConfig, SimConfig, SourceParams, simulate
from photoncorr.inference import fit_counts
from photoncorr.io import counts_to_text

from conftest import FIT_DET_H, FIT_DET_V, PAPER_DET_H, PAPER_DET_V, PAPER_MEAN

RECORD = pathlib.Path(__file__).parent / "data" / "record.json"
N_BOOTSTRAP = 100


def _derive_seed(seed, purpose):
    """The seed ``bench/run.py`` derives for ``purpose`` from its ``--seed``."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).hexdigest()
    return int(digest[:12], 16)


def _inputs():
    """name: (simulation config, bootstrap seed)."""
    inputs = {}
    for seed in (1, 29, 41):
        config = SimConfig(
            SourceParams(PAPER_MEAN, 0.5), PAPER_DET_H, PAPER_DET_V, 10 ** 6,
            _derive_seed(seed, "fit-bootstrap.simulate"), 12,
        )
        inputs[f"bench-{seed}"] = config, _derive_seed(seed, "fit-bootstrap.bootstrap")
    for g in (0.06, 0.47):
        config = SimConfig(SourceParams(PAPER_MEAN, g), FIT_DET_H, FIT_DET_V, 10 ** 6, 601, 34)
        inputs[f"fit-601-g{g}"] = config, 601
    return inputs


INPUTS = _inputs()


def _rounded(value):
    return float(f"{value:.12g}")


def outputs(name):
    """The recorded outputs of input ``name``, computed afresh."""
    config, bootstrap_seed = INPUTS[name]
    counts = simulate(config)
    terms, builds = inference._correlated_term, []

    def counting(stage1, log_means, after_loss):
        builds.append(len(log_means))
        return terms(stage1, log_means, after_loss)

    with mock.patch.object(inference, "_correlated_term", counting):
        fit = fit_counts(counts, FitConfig(), n_bootstrap=N_BOOTSTRAP, seed=bootstrap_seed)
    s1 = fit.stage1
    stage1 = {
        key: _rounded(getattr(s1, key))
        for key in ("detected_mean_h", "detected_mean_v", "dark_h", "dark_v", "xtalk_h", "xtalk_v")
    }
    values = {
        "g": fit.source.correlation, "mean": fit.source.mean_photons, "nu": fit.nu,
        "residual": fit.residual, "g_error": fit.g_error, "nu_error": fit.nu_error,
        "distance_error": fit.distance_error,
    }
    return {
        "counts_sha256": hashlib.sha256(counts_to_text(counts).encode()).hexdigest(),
        "stage1": {**stage1, "evaluations": s1.evaluations, "at_bound": list(s1.at_bound)},
        "fit": {
            **{key: _rounded(value) for key, value in values.items()},
            "evaluations": fit.evaluations, "at_bound": list(fit.at_bound),
        },
        "term_passes": len(builds),
        "term_points": sum(builds),
    }


def _recorded():
    with open(RECORD) as handle:
        return json.load(handle)


def test_record_names_every_input():
    assert sorted(_recorded()) == sorted(INPUTS)


@pytest.mark.parametrize("name", list(INPUTS))
def test_outputs_match_the_record(name):
    want, got = _recorded()[name], outputs(name)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if not isinstance(value, dict):
            assert got[key] == value, key
            continue
        assert got[key].keys() == value.keys(), key
        for field, recorded in value.items():
            if isinstance(recorded, float):
                assert math.isclose(got[key][field], recorded, rel_tol=1e-6), (key, field)
            else:
                assert got[key][field] == recorded, (key, field)


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    record = {name: outputs(name) for name in INPUTS}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {RECORD}")
