"""
Swap-test similarity and amplitude estimation
=============================================

Encode two feature vectors as quantum states, measure their overlap with the
swap test, and read the similarity through amplitude estimation.

For unit vectors u and v the swap-test ancilla satisfies

    P(1) = 1/2 - <u|v>^2 / (2 N^2),

so the cosine-squared similarity s = <u|v>^2 is recovered as (1 - 2 P(1)) N^2.
"""

import math

import numpy as np

from qrelieff import (
    amplitude_estimate,
    encode_sample,
    estimate,
    fold_distribution,
    modal_outcome,
    swap_flag,
    swap_test_state,
)

# Two of the six-feature samples from the shipped example dataset.
u = np.array([1.0, 0, 0, 1.0, 0, 0])
v = np.array([1.0, 0, 0, 0, 1.0, 0])
u = u / np.linalg.norm(u)
v = v / np.linalg.norm(v)
n = len(u)

print("classical similarity <u|v>^2 =", round(float(np.dot(u, v) ** 2), 6))

# Encode both rows.  swap_flag moves one state into the complementary layout
# so the overlap of the pair isolates the feature dot product.
p1 = swap_test_state(swap_flag(encode_sample(u)), encode_sample(v)).x_basis_probability_one()
s = (1.0 - 2.0 * p1) * n**2
print("swap-test P(1)               =", round(p1, 6))
print("recovered similarity         =", round(s, 6))

# Amplitude estimation reads a probability a as a t-bit integer y with
# a ~ sin^2(pi y / 2^t).  Its outcome distribution depends on a alone, so it
# takes a itself.  Here we estimate a = s with 6 readout bits.
t = 6
dist = amplitude_estimate(s, t)
y = modal_outcome(dist)
print(f"\n{t}-bit estimation: y = {y}, a_hat = {estimate(y, t):.6f}")

# The two grid points nearest the true value always carry >= 8/pi^2 of the
# probability mass; on-grid values concentrate almost fully.
folded = fold_distribution(dist)
top = np.argsort(folded)[::-1][:3]
print("top folded outcomes:", [(int(y), round(float(folded[y]), 4)) for y in top])
print("mass bound 8/pi^2 =", round(8 / math.pi**2, 4))
