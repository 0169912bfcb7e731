"""Unit tests for the statevector simulator layer."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelieff import (
    CapacityError,
    ConfigError,
    QReliefFError,
    RngStream,
    StateVector,
    h,
    ry,
    run_circuit,
    swap,
    swap_registers,
    x,
    zero_state,
)
from qrelieff.circuits import cmp_flag, swap_test_state
from qrelieff.program3 import final_state, reproduce_program3
from qrelieff.statevector import GateOp
from reference_kernels import basis_state, gate_matrix

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestZeroState:
    def test_one_qubit(self):
        np.testing.assert_allclose(zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_allclose(zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            zero_state(29)
        with pytest.raises(CapacityError):
            zero_state(0)

    def test_capacity_enforced_on_construction(self, monkeypatch):
        from qrelieff import statevector

        monkeypatch.setattr(statevector, "MAX_QUBITS", 3)
        with pytest.raises(CapacityError):
            StateVector(4, np.eye(1, 16, dtype=complex)[0])
        with pytest.raises(CapacityError):
            zero_state(4)
        assert zero_state(3).n_qubits == 3


class TestRunCircuit:
    def test_no_gates_is_the_zero_state(self):
        state, held = run_circuit(3, [])
        assert held == [0, 1, 2]
        assert np.array_equal(state.amplitudes, zero_state(3).amplitudes)

    def test_swap_pairs_of_unnamed_qubits_are_skipped(self):
        # (1, 2) and (4, 5) exchange |0> with |0>; the SWAP under unnamed 3
        # is left with no pair, so its control stays out too
        gates = [h(0), swap_registers([0, 1, 4], [6, 2, 5]), swap(1, 2, controls=[3])]
        state, held = run_circuit(7, gates)
        assert held == [0, 6]
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])  # on qubit 6

    def test_qubit_out_of_range(self):
        # the SWAPs' pairs are checked before a pair of unnamed qubits is dropped
        for gate in (x(3), swap(1, 3), swap(1, 2, controls=[3])):
            with pytest.raises(QReliefFError, match="out of range"):
                run_circuit(3, [h(0), gate])

    def test_capacity_checked_before_any_allocation(self, monkeypatch):
        """Over the cap, no gate is read and no array of the final width
        (16 MiB at 21 qubits) is allocated."""
        from qrelieff import statevector

        monkeypatch.setattr(statevector, "MAX_QUBITS", 20)
        read = []

        def gates():
            read.append(True)
            yield h(0)

        def attempt():
            with pytest.raises(CapacityError):
                run_circuit(21, gates())

        _, peak = _traced(attempt)
        assert not read
        assert peak < 1 << 20


class TestApply:
    def test_hadamard(self):
        state = zero_state(1).apply(h(0))
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_ry_of_asin(self):
        state = zero_state(1).apply(ry(2.0 * math.asin(0.6), 0))
        np.testing.assert_allclose(state.amplitudes, [0.8, 0.6], atol=1e-12)

    def test_swap_moves_excitation(self):
        # |10> means qubit 1 set: basis index 2
        state = basis_state(2, 2).apply(swap(0, 1))
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0])

    def test_phase_kind_rejected(self):
        """Every gate kind has a real matrix; there is no Phase gate."""
        with pytest.raises(QReliefFError, match="unknown gate kind 'phase'"):
            GateOp("phase", (0,))

    def test_index_out_of_range(self):
        with pytest.raises(QReliefFError):
            zero_state(1).apply(h(1))

    def test_repeated_control_rejected(self):
        with pytest.raises(QReliefFError):
            zero_state(3).apply(x(0, controls=[1, (1, 0)]))

    def test_control_overlapping_target(self):
        with pytest.raises(QReliefFError):
            x(0, controls=[0])

    def test_bit_order_convention(self):
        """Qubit j is bit j of the basis index: X(j)|0..0> = |2^j>."""
        for j in range(4):
            state = zero_state(4).apply(x(j))
            expected = np.zeros(16)
            expected[1 << j] = 1.0
            np.testing.assert_allclose(state.amplitudes, expected)

    def test_norm_preserved_over_random_sequence(self):
        rng = np.random.default_rng(11)
        state = zero_state(4)
        for _ in range(200):
            kind = rng.integers(4)
            q = int(rng.integers(4))
            r = int((q + 1 + rng.integers(3)) % 4)
            gate = [h(q), x(q), ry(rng.random() * math.tau, q), swap(q, r)][kind]
            state = state.apply(gate)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-9

    def test_gate_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(3, amps)
        theta = 0.7
        pairs = [
            (h(1), h(1)),
            (x(2), x(2)),
            (ry(theta, 0), ry(-theta, 0)),
            (swap(0, 2), swap(0, 2)),
        ]
        for gate, inverse in pairs:
            back = state.apply(gate).apply(inverse)
            np.testing.assert_allclose(back.amplitudes, amps, atol=1e-10)

    def test_control_polarity_exhaustive(self):
        """On-zero control == X on the control, on-one control, X again."""
        for idx in range(8):
            base = basis_state(3, idx)
            on_zero = base.apply(x(0, controls=[(2, 0)]))
            via_flip = (
                base.apply(x(2)).apply(x(0, controls=[(2, 1)])).apply(x(2))
            )
            np.testing.assert_allclose(
                on_zero.amplitudes, via_flip.amplitudes, atol=1e-12
            )

    def test_apply_unitary_matches_gate(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(3, amps)
        gate = ry(1.1, 1)
        via_gate = state.apply(gate)
        via_unitary = state.apply_unitary(gate_matrix(gate), [1])
        np.testing.assert_allclose(
            via_gate.amplitudes, via_unitary.amplitudes, atol=1e-12
        )


def _gate_id(gate: GateOp) -> str:
    return "-".join([gate.kind, *map(str, gate.targets)] + [f"c{q}" for q, _ in gate.controls])


def _guard_gates():
    """(width, gate): one-target gates and one-pair SWAPs on 20 qubits, then
    Program 3's controlled 8-pair swap, the swap test's 5-pair swap under the
    top qubit of 19, and an uncontrolled swap of two 10-qubit registers."""
    for t in (0, 1, 5, 10, 19):
        pair = swap(t, t + 1 if t < 19 else t - 1)
        yield from ((20, g) for g in (h(t), x(t), ry(0.7, t), pair))
    yield 20, ry(0.7, 0, controls=[18])
    yield 20, x(18, controls=[2, 5])
    yield 20, swap_registers([0, 1, 2, 4, 5, 6, 7, 8], range(9, 17), controls=[19])
    yield 19, swap_registers(range(9, 14), range(5), controls=[18])
    yield 20, swap_registers(range(10), range(10, 20))


GUARD_GATES = [pytest.param(n, g, id=_gate_id(g)) for n, g in _guard_gates()]


READOUTS = {
    "p1-0": lambda s: s.marginal_probabilities([0])[1],
    "p1-10": lambda s: s.marginal_probabilities([10])[1],
    "p1-19": lambda s: s.marginal_probabilities([19])[1],
    "marginal-19": lambda s: s.marginal_probabilities([19]),
    "marginal-17-18-19": lambda s: s.marginal_probabilities([17, 18, 19]),
}
CONSTRUCTORS = {
    "zero_state": lambda: zero_state(20),
    # one state of the named width, each gate run on it in place: 15 qubits
    # for Program 3, all 20 for H on each
    "program3.final_state": final_state,
    "run_circuit": lambda: run_circuit(20, [h(q) for q in range(20)])[0],
}


def _traced(fn):
    """``fn()`` and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestKernelMemory:
    """Working memory beyond the state and the result stays under 1 MiB on 19
    and 20 qubits, where half-state temporaries took 4-16 MiB."""

    @pytest.fixture(scope="class")
    def wide(self):
        return {
            n: StateVector(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=complex), _checked=True)
            for n in (19, 20)
        }

    @pytest.mark.parametrize("n, gate", GUARD_GATES)
    def test_in_place_gate_allocates_under_one_mib(self, wide, n, gate):
        """A gate and a register swap work block by block."""
        _, peak = _traced(lambda: wide[n].apply(gate, _in_place=True))
        assert peak < 1 << 20

    @pytest.mark.parametrize("readout", READOUTS.values(), ids=READOUTS.keys())
    def test_readout_allocates_under_one_mib(self, wide, readout):
        """Sums of squares over blocks, not over a squared copy of the state."""
        result, peak = _traced(lambda: readout(wide[20]))
        assert peak - np.asarray(result).nbytes < 1 << 20

    @pytest.mark.parametrize("n", [19, 20])
    @pytest.mark.parametrize("both", [True, False], ids=["both", "p1"])
    def test_x_basis_readout_allocates_under_one_mib(self, wide, n, both):
        """The swap test's readout folds its H into sums over blocks and
        leaves the state as it is."""
        readout = wide[n].x_basis_probabilities if both else wide[n].x_basis_probability_one
        result, peak = _traced(readout)
        assert peak - np.asarray(result).nbytes < 1 << 20

    @pytest.mark.parametrize("qubit, outcome", [(19, 1), (0, 0)])
    def test_postselect_allocates_under_one_mib(self, wide, qubit, outcome):
        """The zeroed copy is the result: its norm is summed over blocks and
        it is renormalized in place."""
        result, peak = _traced(lambda: wide[20].postselect(qubit, outcome))
        assert peak - result.amplitudes.nbytes < 1 << 20

    @pytest.mark.parametrize("bound", [1, 0b1010 << 15, 1 << 19])
    def test_cmp_flag_allocates_under_one_mib(self, wide, bound):
        """The comparator's X gates run in place on the copy that is its
        result, where a reshaped permutation held 4-16 MiB."""
        amps = np.zeros(1 << 20, dtype=wide[19].amplitudes.dtype)
        amps[: 1 << 19] = wide[19].amplitudes  # flag 19 clear
        state = StateVector(20, amps, _checked=True)
        result, peak = _traced(lambda: cmp_flag(state, range(19), bound, 19))
        assert peak - result.amplitudes.nbytes < 1 << 20

    @pytest.mark.parametrize("padded", [False, True], ids=["dense", "one-hot"])
    def test_swap_test_state_allocates_under_one_mib_beyond_itself(self, wide, padded):
        """The 19-qubit composite of two 9-qubit registers, the pipeline's
        five encoding pairs swapped: A's nonzero rows go through temporaries
        of at most ``CHUNK`` amplitudes, where one temporary of every row
        would take 2 MiB real and 4 MiB complex at a dense A.  The one-hot
        register is an N = 8 encoding's width under a 4-bit sample index."""
        if padded:
            amps = np.kron(np.eye(16)[3], np.full(32, 32 ** -0.5))
        else:
            amps = np.full(1 << 9, 2.0 ** -4.5)
        reg = StateVector(9, amps.astype(wide[19].amplitudes.dtype), _checked=True)
        result, peak = _traced(lambda: swap_test_state(reg, reg, range(5)))
        assert result.n_qubits == 19
        assert peak - result.amplitudes.nbytes < 1 << 20

    @pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
    def test_built_state_allocates_under_one_mib_beyond_itself(self, build):
        """A unit vector by construction skips the norm check."""
        state, peak = _traced(build)
        assert peak - state.amplitudes.nbytes < 1 << 20


class TestRealKernelMemory(TestKernelMemory):
    """The same bounds on float64 states, whose blocks take half the bytes."""

    @pytest.fixture(scope="class")
    def wide(self):
        return {n: StateVector(n, np.full(1 << n, 2.0 ** (-n / 2)), _checked=True) for n in (19, 20)}

    @pytest.mark.parametrize("n, gate", GUARD_GATES)
    def test_in_place_gate_allocates_under_one_mib(self, wide, n, gate):
        super().test_in_place_gate_allocates_under_one_mib(wide, n, gate)
        assert wide[n].amplitudes.dtype == np.float64


def test_program3_reproduction_allocates_under_one_mib():
    """The run on the 15 qubits its gates use and the ancilla's readout, where
    the 20-qubit state took 8 MiB."""
    reproduce_program3(shots=1, runs=1)  # numpy.random imports modules on its first draw
    _, peak = _traced(reproduce_program3)
    assert peak < 1 << 20


class TestRegisterSwap:
    def test_swaps_every_pair(self):
        # |q5..q0> = |000 101>: register (0, 1, 2) to (3, 4, 5)
        state = basis_state(6, 0b000101).apply(swap_registers([0, 1, 2], [3, 4, 5]))
        assert state.amplitudes[0b101000] == 1.0

    def test_matches_its_matrix(self):
        rng = np.random.default_rng(9)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        state = StateVector(6, amps / np.linalg.norm(amps))
        gate = swap_registers([4, 0], [1, 3], controls=[(5, 0), 2])
        np.testing.assert_allclose(
            state.apply(gate).amplitudes,
            state.apply_unitary(gate_matrix(gate), gate.targets, gate.controls).amplitudes,
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("targets, controls", [
        ((0, 1, 2), ()),             # odd target count
        ((), ()),                    # zero pairs
        ((0, 1, 2, 0), ()),          # repeated qubit
        ((0, 1, 2, 3), ((3, 1),)),   # target also a control
        ((0, 1, 2, 3), ((4, 1), (4, 0))),  # repeated control
    ])
    def test_invalid_swaps_rejected(self, targets, controls):
        with pytest.raises(QReliefFError):
            GateOp("swap", targets, controls)

    def test_register_widths_must_match(self):
        with pytest.raises(QReliefFError):
            swap_registers([0, 1], [2])

    def test_qubit_out_of_range(self):
        with pytest.raises(QReliefFError):
            zero_state(4).apply(swap_registers([0, 1], [2, 4]))
        with pytest.raises(QReliefFError):
            zero_state(4).apply(swap_registers([0, 1], [2, 3], controls=[5]))


class TestMeasurement:
    def test_probability_one_uniform(self):
        state = zero_state(1).apply(h(0))
        assert state.marginal_probabilities([0])[1] == pytest.approx(0.5, abs=1e-12)

    def test_probability_one_excited(self):
        assert basis_state(1, 1).marginal_probabilities([0])[1] == 1.0

    def test_probability_one_rotated(self):
        state = zero_state(1).apply(ry(2.0 * math.asin(0.6), 0))
        assert state.marginal_probabilities([0])[1] == pytest.approx(0.36, abs=1e-12)

    def test_postselect_bell(self):
        bell = zero_state(2).apply(h(0)).apply(x(1, controls=[0]))
        collapsed = bell.postselect(0, 1)
        np.testing.assert_allclose(collapsed.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_postselect_degenerate(self):
        with pytest.raises(QReliefFError, match=r"^branch qubit 0 = 1 has probability 0\.0$") as info:
            zero_state(1).postselect(0, 1)
        assert info.type is QReliefFError

    def test_postselect_renormalizes(self):
        uniform = zero_state(2).apply(h(0)).apply(h(1))
        kept = uniform.postselect(1, 0)
        np.testing.assert_allclose(
            kept.amplitudes, [INV_SQRT2, INV_SQRT2, 0, 0], atol=1e-12
        )

    def test_marginal_probabilities(self):
        state = zero_state(2).apply(h(1))
        np.testing.assert_allclose(
            state.marginal_probabilities([1]), [0.5, 0.5], atol=1e-12
        )
        np.testing.assert_allclose(
            state.marginal_probabilities([0]), [1.0, 0.0], atol=1e-12
        )


class TestSample:
    def test_deterministic_state(self):
        counts = basis_state(1, 1).sample([0], 100, RngStream(0))
        assert np.array_equal(counts, [0, 100])

    def test_binomial_band(self):
        state = zero_state(1).apply(h(0))
        counts = state.sample([0], 1024, RngStream(7))
        assert counts.sum() == 1024
        sigma = math.sqrt(0.25 / 1024)
        assert abs(counts[1] / 1024 - 0.5) < 3 * sigma

    def test_counts_pass_chi_square(self):
        """Counts follow ``marginal_probabilities``: 20000 shots of qubits
        (2, 0, 3) of a random 4-qubit state (amplitudes from
        ``default_rng(0)``) on RngStream(0) give chi-square 4.84 over 8
        outcomes, each expected at least 42 times.  The bound, 40.52, is the
        1 - 1e-6 quantile of chi-square with 7 degrees of freedom
        (scipy.stats.chi2.ppf).  Counts read with the register's bits
        reversed give 3710."""
        amps = np.random.default_rng(0).normal(size=16)
        state, qubits, shots = StateVector(4, amps / np.linalg.norm(amps)), [2, 0, 3], 20000
        expected = shots * state.marginal_probabilities(qubits)
        observed = state.sample(qubits, shots, RngStream(0))
        assert expected.min() >= 5.0
        chi_square = float(np.sum((observed - expected) ** 2 / expected))
        assert chi_square <= 40.52, chi_square

    def test_empty_qubit_list(self):
        with pytest.raises(QReliefFError):
            zero_state(1).sample([], 10, RngStream(0))

    @pytest.mark.parametrize("shots, message", [
        (0, "shots must be >= 1, got 0"),
        (2**63, f"shots must be <= {2**63 - 1}, got {2**63}"),
    ])
    def test_shots_outside_int64_draws_are_config_errors(self, shots, message):
        # numpy counts a multinomial draw in int64; 2**63 would overflow it
        with pytest.raises(ConfigError) as info:
            zero_state(1).sample([0], shots, RngStream(0))
        assert str(info.value) == message
        with pytest.raises(ConfigError) as info:
            RngStream(0).multinomial(shots, np.array([0.5, 0.5]))
        assert str(info.value) == message

    def test_seed_determinism(self):
        state = zero_state(3).apply(h(0)).apply(h(2))
        a = state.sample([0, 1, 2], 500, RngStream(42))
        b = state.sample([0, 1, 2], 500, RngStream(42))
        assert np.array_equal(a, b)

    def test_bitstring_positions(self):
        """Basis state |b>, read on a permuted qubit list, puts every shot at
        the register value that list gives b: bit i of it is bit
        ``qubits[i]`` of b."""
        for qubits in itertools.permutations(range(3)):
            for b in range(8):
                value = sum(((b >> q) & 1) << i for i, q in enumerate(qubits))
                counts = basis_state(3, b).sample(qubits, 10, RngStream(1))
                assert np.array_equal(counts, 10 * np.eye(8, dtype=int)[value]), (qubits, b)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_counts_are_the_multinomial_draw_of_the_marginal(self, data):
        """On random real and complex states of 1-6 qubits and random ordered
        qubit lists, the counts are the stream's one multinomial draw over
        the normalized marginal, entry v for register value v."""
        n = data.draw(st.integers(1, 6))
        amps_rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = amps_rng.normal(size=1 << n)
        if data.draw(st.booleans()):
            amps = amps + 1j * amps_rng.normal(size=1 << n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        qubits = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
        shots, seed = data.draw(st.integers(1, 4096)), data.draw(st.integers(0, 2**32 - 1))
        p = state.marginal_probabilities(qubits)
        counts = state.sample(qubits, shots, RngStream(seed))
        assert np.array_equal(counts, RngStream(seed).multinomial(shots, p))
        assert counts.sum() == shots

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_draws_ignore_an_exact_scale(self, data):
        """The stream divides the probabilities by their sum, so scaling
        them by 2^k, which is exact, changes no count and no drawn index."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p = rng.random(data.draw(st.integers(1, 64)))
        p[0] += 1e-3  # a nonzero sum
        scaled = np.ldexp(p, data.draw(st.integers(-60, 60)))
        shots, seed = data.draw(st.integers(1, 4096)), data.draw(st.integers(0, 2**32 - 1))
        assert np.array_equal(
            RngStream(seed).multinomial(shots, scaled), RngStream(seed).multinomial(shots, p)
        )
        assert RngStream(seed).choice_weighted(scaled) == RngStream(seed).choice_weighted(p)


class TestStateVectorInvariants:
    def test_norm_checked_on_construction(self):
        with pytest.raises(QReliefFError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_length_checked(self):
        with pytest.raises(QReliefFError):
            StateVector(2, np.array([1.0, 0.0]))
