"""Every tolerance check rejects NaN and infinity, which compare false."""

import numpy as np
import pytest

from qrelieff import Dataset, NormalizedDataset, QReliefFError, StateVector, encode_sample

NAMES = ["a", "b"]

CASES = {
    "state nan": lambda: StateVector(1, [np.nan, 0.0]),
    "state inf": lambda: StateVector(1, [np.inf, 0.0]),
    "state complex nan": lambda: StateVector(1, [complex(1.0, np.nan), 0.0]),
    "feature vector nan": lambda: encode_sample([np.nan, 1.0]),
    "feature vector inf": lambda: encode_sample([np.inf, 0.0]),
    "dataset nan": lambda: Dataset([[1.0, np.nan], [1.0, 1.0]], [0, 1], NAMES),
    "dataset -inf": lambda: Dataset([[1.0, 1.0], [-np.inf, 1.0]], [0, 1], NAMES),
    "normalized dataset nan": lambda: NormalizedDataset(
        [[np.nan, np.nan], [1.0, 0.0]], [0, 1], NAMES
    ),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_non_finite_rejected(build):
    with pytest.raises(QReliefFError):
        build()
