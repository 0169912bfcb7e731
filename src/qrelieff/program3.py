"""Reproduction of the published 20-qubit similarity-calculation circuit.

The circuit encodes two samples on qubits 0-8 and 9-16, runs a swap test with
ancilla qubit 19, and uses qubits 17 and 18 as comparison scratch; qubit 3 is
idle (it was off-line on the target chip).  The published listing's
parameterized controlled rotation with theta = 1 equals a controlled Ry(pi),
and its eight CSWAPs on ancilla 19 are written as one controlled register
swap, which moves the amplitudes exactly as the eight gates in turn do.

:func:`final_state` runs the gate list through
:func:`~qrelieff.statevector.run_circuit`, on the 15 qubits its gates use:
besides idle qubit 3, the CSWAP pairs (7, 15) and (8, 16) only exchange |0>
with |0>, so the register swap drops them, and qubits 7, 8, 15 and 16 stay
out of the state.  The state of those 15 is allocated once, ancilla 19 its
top qubit, and each gate is controlled on |0> of the qubits no gate has
named yet: the first 23 touch at most 2^14 amplitudes, the last two all
2^15.  With the five others added at |0>, the amplitudes equal those of the
gates run on all 20 qubits, up to the sign of an exact zero.  The ancilla's
marginal, read once on the 15-qubit state, gives P(1) and each run's draw;
its floats, and so the CLI document, are those of the 20-qubit readout
(``tests/data/program3_seed0.json`` pins them).

The published measured average of 0.435125 for reading |1> on the ancilla is
reported for reference only; the oracle here is the exact statevector
probability of the same circuit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import pi

from .errors import ConfigError
from .rng import RngStream, check_shots
from .statevector import GateOp, StateVector, h, ry, run_circuit, swap, swap_registers, x

PUBLISHED_P1 = 0.435125
RESULT_QUBIT = 19
N_QUBITS = 20


def build_circuit() -> list[GateOp]:
    """The similarity-calculation circuit, gate for gate but for the one
    register swap."""
    ccnot = lambda a, b, t: x(t, controls=[a, b])
    cry_pi = lambda c, t: ry(pi, t, controls=[c])
    return [
        # first sample register (qubits 0-8), comparison scratch 18
        x(1), h(2), h(4), h(5), x(2), x(5),
        ccnot(2, 5, 18), x(2), x(5), cry_pi(18, 0),
        swap(0, 1),
        # second sample register (qubits 9-16), comparison scratch 17
        x(10), h(11), h(12), h(13), x(14),
        x(11), x(12), ccnot(11, 12, 17), x(11), x(12), cry_pi(17, 9),
        # swap test on the data registers, ancilla 19: the eight CSWAPs
        # (0, 9), (1, 10), (2, 11), (4, 12), (5, 13) ... (8, 16) as one gate
        h(19),
        swap_registers([0, 1, 2, 4, 5, 6, 7, 8], range(9, 17), controls=[19]),
        h(19),
    ]


def final_state() -> StateVector:
    """The state after :func:`build_circuit` on the 15 qubits its gates use,
    run from |0...0> by :func:`run_circuit`: qubit j of the state is the
    j-th lowest of them, and ancilla ``RESULT_QUBIT`` is the top one."""
    return run_circuit(N_QUBITS, build_circuit())[0]


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
    check_shots(shots)
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    state = final_state()
    top = state.n_qubits - 1  # RESULT_QUBIT
    probs = state.marginal_probabilities([top])
    rng = RngStream(seed)
    means = [int(rng.substream(r).multinomial(shots, probs)[1]) / shots for r in range(runs)]
    sampled_mean = sum(means) / len(means)
    return Program3Result(float(probs[1]), means, sampled_mean, shots, runs)
