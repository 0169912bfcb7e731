"""Quantum-simulated ReliefF feature selection with a classical oracle."""

from .circuits import (
    GroverPlan,
    amplitude_estimate,
    cmp_flag,
    encode_sample,
    fold_distribution,
    grover_plan,
    grover_search_state,
    modal_outcome,
    quantum_extreme_search,
    reduced_preparation,
    swap_flag,
    swap_test,
    uniform_mod_n,
)
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateSampleError,
    NoSolutionError,
    PostselectionError,
    QReliefFError,
    SearchFailedError,
)
from .pipeline import (
    PipelineConfig,
    qrelieff_run,
    quantum_neighbors,
    quantum_similarity,
)
from .program3 import Program3Result, reproduce_program3
from .relieff import (
    Dataset,
    FeatureStats,
    NormalizedDataset,
    RunConfig,
    find_neighbors,
    normalize,
    relieff_run,
    select_features,
    similarity,
    update_weights,
)
from .rng import RngStream
from .statevector import (
    StateVector,
    h,
    ry,
    swap,
    swap_registers,
    x,
    zero_state,
)

__version__ = "0.1.0"
