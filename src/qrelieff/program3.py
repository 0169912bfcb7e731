"""Reproduction of the published 20-qubit similarity-calculation circuit.

The circuit encodes two samples on qubits 0-8 and 9-16, runs a swap test with
ancilla qubit 19, and uses qubits 17 and 18 as comparison scratch; qubit 3 is
idle (it was off-line on the target chip).  The published listing's
parameterized controlled rotation with theta = 1 equals a controlled Ry(pi).

The published measured average of 0.435125 for reading |1> on the ancilla is
reported for reference only; the oracle here is the exact statevector
probability of the same circuit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import pi

from .errors import ConfigError
from .rng import RngStream
from .statevector import GateOp, StateVector, h, ry, swap, x, zero_state

PUBLISHED_P1 = 0.435125
RESULT_QUBIT = 19
N_QUBITS = 20


def build_circuit() -> list[GateOp]:
    """The similarity-calculation circuit, gate for gate."""
    ccnot = lambda a, b, t: x(t, controls=[a, b])
    cry_pi = lambda c, t: ry(pi, t, controls=[c])
    cswap = lambda c, a, b: swap(a, b, controls=[c])
    return [
        # first sample register (qubits 0-8), comparison scratch 18
        x(1), h(2), h(4), h(5), x(2), x(5),
        ccnot(2, 5, 18), x(2), x(5), cry_pi(18, 0),
        swap(0, 1),
        # second sample register (qubits 9-16), comparison scratch 17
        x(10), h(11), h(12), h(13), x(14),
        x(11), x(12), ccnot(11, 12, 17), x(11), x(12), cry_pi(17, 9),
        # swap test on the data registers, ancilla 19
        h(19),
        cswap(19, 0, 9), cswap(19, 1, 10), cswap(19, 2, 11), cswap(19, 4, 12),
        cswap(19, 5, 13), cswap(19, 6, 14), cswap(19, 7, 15), cswap(19, 8, 16),
        h(19),
    ]


def final_state() -> StateVector:
    return zero_state(N_QUBITS)._run(build_circuit())


@dataclass
class Program3Result:
    exact_p1: float
    run_means: list[float]
    sampled_mean: float
    shots: int
    runs: int
    published_p1: float = PUBLISHED_P1

    def as_dict(self):
        return asdict(self)


def reproduce_program3(
    shots: int = 1024, runs: int = 8, seed: int = 0
) -> Program3Result:
    """Exact ancilla P(1) plus ``runs`` sampled means of ``shots`` each."""
    if shots < 1 or runs < 1:
        raise ConfigError(f"shots and runs must be >= 1, got {shots} and {runs}")
    state = final_state()
    exact = state.probability_one(RESULT_QUBIT)
    rng = RngStream(seed)
    means = []
    for r in range(runs):
        counts = state.sample([RESULT_QUBIT], shots, rng.substream(r))
        means.append(counts.get("1", 0) / shots)
    sampled_mean = sum(means) / len(means)
    return Program3Result(exact, means, sampled_mean, shots, runs)
