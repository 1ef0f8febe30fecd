import numpy as np
import pytest

from photoncorr import DetectorParams
from photoncorr.montecarlo import _detect_in_place

# Detector parameters of the reference measurement: low efficiency,
# sizeable dark counts and crosstalk.
PAPER_DET_H = DetectorParams(efficiency=0.012, dark_mean=0.11, crosstalk=0.12)
PAPER_DET_V = DetectorParams(efficiency=0.010, dark_mean=0.14, crosstalk=0.11)
PAPER_MEAN = 4.1

# A higher-efficiency configuration used where parameter recovery is
# exercised: at the reference efficiencies the joint histogram carries
# too little Fisher information to pin the fit at the tested tolerances.
FIT_DET_H = DetectorParams(efficiency=0.70, dark_mean=0.02, crosstalk=0.05)
FIT_DET_V = DetectorParams(efficiency=0.65, dark_mean=0.03, crosstalk=0.04)


def detect_count(n, params, rng):
    """The event-level detection reference: true photon numbers ``n`` pushed
    through one detector by the Monte Carlo's own pass, on an int64 copy
    that keeps ``n``'s shape; ``n`` is left unchanged."""
    m = np.array(n, dtype=np.int64)
    _detect_in_place(m.reshape(-1), params, rng)  # a view: the copy is contiguous
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
