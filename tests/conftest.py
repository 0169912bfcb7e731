"""Shared fixtures: the six-sample worked-example dataset and helpers."""

import numpy as np
import pytest
from hypothesis import settings

from qrelieff import Dataset, normalize

# a longer fuzz than tier-1's default 100 examples:
# pytest tests/test_cli_fuzz.py --hypothesis-profile=fuzz
settings.register_profile("fuzz", max_examples=1000)

# a failed check of the shared log-shape helper shows its operands, as a
# failed assert in a test module does
pytest.register_assert_rewrite("similarity_log")

# Six binary samples over six features, two per class.  Classes: A = {S0, S1},
# B = {S2, S3}, C = {S4, S5}.  Every feature is an indicator, so the rows have
# equal norm and all pairwise similarities are multiples of 1/4.
EXAMPLE_ROWS = np.array(
    [
        [1, 0, 0, 1, 0, 0],  # S0, class A
        [1, 0, 0, 0, 1, 0],  # S1, class A
        [0, 1, 0, 0, 0, 1],  # S2, class B
        [0, 1, 0, 1, 0, 0],  # S3, class B
        [0, 0, 1, 0, 1, 0],  # S4, class C
        [0, 0, 1, 0, 0, 1],  # S5, class C
    ],
    dtype=float,
)
EXAMPLE_LABELS = np.array([0, 0, 1, 1, 2, 2])
EXAMPLE_FEATURES = [f"F{i}" for i in range(6)]


@pytest.fixture(scope="session")
def example_dataset():
    return Dataset(EXAMPLE_ROWS.copy(), EXAMPLE_LABELS.copy(), list(EXAMPLE_FEATURES))


@pytest.fixture(scope="session")
def example_normalized(example_dataset):
    return normalize(example_dataset)


def random_unit_vector(rng, n):
    """A nonnegative unit vector with at least one strictly positive entry."""
    while True:
        v = rng.random(n)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def random_binary_dataset(rng, m, n, p):
    """Random 0/1 dataset with >= 2 members per class and no zero rows."""
    while True:
        rows = rng.integers(0, 2, size=(m, n)).astype(float)
        labels = np.concatenate([np.arange(p), rng.integers(0, p, size=m - p)])
        rng.shuffle(labels)
        counts = np.bincount(labels, minlength=p)
        if np.all(rows.sum(axis=1) > 0) and np.all(counts >= 2):
            return Dataset(rows, labels, [f"F{i}" for i in range(n)])
