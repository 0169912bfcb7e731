"""Tests for the published 20-qubit similarity-circuit reproduction."""

import io
import math
from pathlib import Path

import numpy as np
import pytest

from qrelieff.cli import run_cli
from qrelieff.errors import ConfigError
from qrelieff.program3 import (
    N_QUBITS,
    PUBLISHED_P1,
    RESULT_QUBIT,
    build_circuit,
    final_state,
    reproduce_program3,
)
from qrelieff.rng import RngStream
from qrelieff.statevector import StateVector, run_circuit
from reference_kernels import probability_one_unchunked, widen

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def state():
    """The circuit's state on all 20 qubits: the run on the qubits its gates
    use, widened."""
    compact, held = run_circuit(N_QUBITS, build_circuit())
    return StateVector(N_QUBITS, widen(compact.amplitudes, held, range(N_QUBITS)), _checked=True)


class TestCircuit:
    def test_register_span(self):
        gates = build_circuit()
        used = set()
        for g in gates:
            used.update(g.targets)
            used.update(q for q, _ in g.controls)
        assert max(used) == N_QUBITS - 1
        assert RESULT_QUBIT in used
        assert 3 not in used  # off-line qubit stays idle

    def test_final_state_holds_the_qubits_its_gates_use(self):
        # the CSWAP pairs (7, 15) and (8, 16) exchange |0> with |0>
        _, held = run_circuit(N_QUBITS, build_circuit())
        assert held == [q for q in range(N_QUBITS) if q not in (3, 7, 8, 15, 16)]
        assert final_state().n_qubits == 15 and held[-1] == RESULT_QUBIT

    @pytest.mark.parametrize("qubit", [0, 5, 13, 14, 18, RESULT_QUBIT])
    def test_marginal_reads_probability_one_bit_for_bit(self, state, qubit):
        # reproduce_program3 takes its exact P(1) from the marginal it samples:
        # the bits of one numpy sum over the squares of the qubit's 1 half
        assert state.marginal_probabilities([qubit])[1] == probability_one_unchunked(state, qubit)

    def test_exact_p1_is_stable(self, state):
        # the readout on final_state's 15 qubits, ancilla on top, is the
        # 20-qubit one bit for bit
        a = state.marginal_probabilities([RESULT_QUBIT])[1]
        compact = final_state()
        b = compact.marginal_probabilities([compact.n_qubits - 1])[1]
        assert a == b
        assert 0.0 <= a <= 0.5 + 1e-12  # swap-test ancilla bound


class TestReproduction:
    def test_sampled_mean_within_band(self, state):
        result = reproduce_program3(shots=1024, runs=8, seed=5)
        assert result.exact_p1 == pytest.approx(
            state.marginal_probabilities([RESULT_QUBIT])[1], abs=1e-12
        )
        assert len(result.run_means) == 8
        p = result.exact_p1
        sigma = math.sqrt(p * (1 - p) / (8 * 1024))
        assert abs(result.sampled_mean - p) < 3 * sigma

    def test_published_value_echoed_not_asserted(self):
        result = reproduce_program3(shots=16, runs=2, seed=0)
        assert result.published_p1 == PUBLISHED_P1
        doc = result.as_dict()
        assert doc["published_p1"] == PUBLISHED_P1
        assert set(doc) >= {"exact_p1", "sampled_mean", "run_means", "shots", "runs"}

    def test_seed_determinism(self):
        a = reproduce_program3(shots=64, runs=3, seed=9)
        b = reproduce_program3(shots=64, runs=3, seed=9)
        assert a.run_means == b.run_means

    def test_zero_runs_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^runs must be >= 1, got 0$"):
            reproduce_program3(runs=0)

    def test_cli_document_matches_recorded(self):
        # recorded with the stride-view kernels on the whole view
        out = io.StringIO()
        assert run_cli(["--reproduce-program3", "--seed", "0"], out) == 0
        assert out.getvalue() == (DATA / "program3_seed0.json").read_text()

    @pytest.mark.parametrize("seed", range(4))
    def test_run_means_are_statevector_samples(self, state, seed):
        # one marginal for all runs; the draws StateVector.sample makes per run
        rng = RngStream(seed)
        want = [
            int(state.sample([RESULT_QUBIT], 1024, rng.substream(r))[1]) / 1024
            for r in range(8)
        ]
        assert reproduce_program3(shots=1024, runs=8, seed=seed).run_means == want
