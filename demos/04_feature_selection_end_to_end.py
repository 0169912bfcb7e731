"""
Feature selection end to end
============================

Run both backends on the shipped six-sample dataset: the classical ReliefF
baseline and the simulated quantum pipeline (amplitude encoding, swap-test
similarity read through amplitude estimation, Grover-based neighbor search).
With exact amplitudes and a shared seed the two backends agree neighbor for
neighbor.
"""

import numpy as np

from qrelieff import (
    PipelineConfig,
    RngStream,
    RunConfig,
    normalize,
    qrelieff_run,
    relieff_run,
)
from qrelieff.cli import example_csv_path, load_csv

dataset, class_names = load_csv(example_csv_path())
print(f"{dataset.n_samples} samples, {dataset.n_features} features, "
      f"classes {class_names}")

nd, stats = normalize(dataset)

# Round-robin picks make the run fully deterministic; k=1 neighbor per class.
classical = relieff_run(
    nd, RunConfig(T=4, k=1, pick_policy="round-robin"), RngStream(0), stats
)
quantum = qrelieff_run(
    nd, PipelineConfig(T=4, k=1, pick_policy="round-robin", ae_bits=6),
    RngStream(0), stats,
)

print("\nper-iteration weights (classical):")
for t, rec in enumerate(classical.iterations, start=1):
    neighbors = rec.neighbors
    print(f"  t={t} picked S{rec.picked} hits={neighbors.hits} "
          f"misses={dict(sorted(neighbors.misses.items()))} "
          f"WT={np.round(rec.weights_after, 3)}")

print("\naveraged weights:")
print("  classical:", np.round(classical.average_weights, 4))
print("  quantum:  ", np.round(quantum.average_weights, 4))

tau = 0.5
names = dataset.feature_names
print(f"\nselected at tau={tau}:")
print("  classical:", [names[i] for i in classical.selected(tau)])
print("  quantum:  ", [names[i] for i in quantum.selected(tau)])

# The quantum trace also keeps every similarity reading, in lists indexed by
# sample; here is the table for the first picked sample (y is the 6-bit
# amplitude-estimation reading).
table = quantum.tables[0]
print(f"\nsimilarity table for picked sample S{table.picked}:")
for c, name in enumerate(class_names):
    row = ", ".join(
        f"S{q}: s={table.s_raw[q]:.3f} y={table.y[q]}" + (" (self)" if q == table.picked else "")
        for q in nd.class_members(c).tolist()
    )
    print(f"  class {name}: {row}")
