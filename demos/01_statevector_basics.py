"""
Statevector simulation basics
=============================

Build small quantum states gate by gate, read exact probabilities, and draw
seeded measurement samples.  Qubit j is the least-significant bit j of the
basis index, so X(2) applied to |000> gives basis index 4.
"""

import math

import numpy as np

from qrelieff import RngStream, h, ry, swap, x, zero_state

# A Hadamard turns |0> into the balanced superposition.
state = zero_state(1).apply(h(0))
print("H|0> amplitudes:", np.round(state.amplitudes, 6))
print("P(1) =", state.marginal_probabilities([0])[1])

# Ry(2 asin v) writes an amplitude v on |1> -- the rotation used to load
# feature values.  v = 0.6 gives the 0.8/0.6 state.
state = zero_state(1).apply(ry(2.0 * math.asin(0.6), 0))
print("\nRy-encoded amplitudes:", np.round(state.amplitudes.real, 6))
print("P(1) =", round(state.marginal_probabilities([0])[1], 6))

# A control given as a qubit triggers on |1>; a (qubit, polarity) pair with
# polarity 0 triggers on |0>.
bell = zero_state(2).apply(h(0)).apply(x(1, controls=[0]))
print("\nBell state amplitudes:", np.round(bell.amplitudes, 6))
anti = zero_state(2).apply(h(0)).apply(x(1, controls=[(0, 0)]))
print("with the control on |0> instead:", np.round(anti.amplitudes, 6))

# Postselection keeps one measurement branch and renormalizes.
collapsed = bell.postselect(0, 1)
print("after postselecting qubit 0 = 1:", np.round(collapsed.amplitudes.real, 3))

# Sampling is explicit and fully seeded: the same stream gives the same counts.
# Entry v counts the readings of register value v, the first listed qubit
# least significant, as in marginal_probabilities: the Bell state reads only
# 0 (|00>) and 3 (|11>).
counts = bell.sample([0, 1], shots=1000, rng=RngStream(7))
print("\n1000 shots on the Bell state, counts by register value:", counts)

# SWAP exchanges two qubits; with a control it becomes the Fredkin gate.
state = zero_state(2).apply(x(1)).apply(swap(0, 1))
print("\n|10> after SWAP has support on index", int(np.argmax(np.abs(state.amplitudes))))
