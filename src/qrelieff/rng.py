"""Seeded random streams with reproducible substreams.

Every random draw in the package comes from an :class:`RngStream`.  Identical
seed and identical draw order give identical outputs.  Independent pieces of
work (e.g. the similarity jobs of one iteration) use substreams derived from
the parent seed plus a key, so their draws do not perturb each other.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

MAX_SHOTS = 2**63 - 1  # the most shots one multinomial draw takes: numpy counts in int64


class RngStream:
    """A seeded random stream.

    Substreams are derived from ``(seed, key)`` via :class:`numpy.random.SeedSequence`
    spawn keys, so ``RngStream(7).substream(3, 1)`` is reproducible and
    independent of the parent's draw position.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        self.key = tuple(int(k) for k in key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.key))
        )

    def substream(self, *key: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(key))

    def integers(self, high: int) -> int:
        """Uniform integer in [0, high)."""
        return int(self._gen.integers(high))

    def multinomial(self, shots: int, probabilities: np.ndarray) -> np.ndarray:
        """Counts of ``shots`` draws with ``probabilities`` divided by their sum."""
        return self._gen.multinomial(shots, probabilities / probabilities.sum())

    def choice_weighted(self, probabilities: np.ndarray) -> int:
        """One index drawn with ``probabilities`` divided by their sum."""
        return int(self._gen.choice(len(probabilities), p=probabilities / probabilities.sum()))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"
