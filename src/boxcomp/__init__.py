"""Toolkit for two-input, two-output bipartite correlation boxes.

Construct boxes and deterministic strategies, measure CHSH values and
signal/indeterminacy trade-offs, decompose boxes over communication
vertices, certify randomness under signaling, and reproduce singlet
statistics by Monte Carlo.  Every measure reads one box or a stack of
boxes, an array of shape (..., 2, 2, 2, 2) indexed [..., x, y, a, b].

`__all__` is every name imported below, the list the README documents.
"""

from types import ModuleType as _ModuleType

from .boxcore import (
    CorrelationBox,
    DeterministicStrategy,
    INPUT_PAIRS,
    PRScope,
    Relabelling,
    STRATEGY_NAMES,
    all_relabellings,
    all_scopes,
    apply_relabelling,
    dump_box,
    enumerate_deterministic,
    load_box,
    mix,
    mixtures,
    pr_box,
    scope_boxes,
    scope_relabelling,
    scope_strategies,
    strategy_box,
    strategy_boxes,
    strategy_name,
)
from .certify import (
    Certificate,
    SuiteCheck,
    SuiteReport,
    certified_indeterminacy_bound,
    complementarity_report,
    max_marginal_bias_zero_signal,
    run_property_suite,
)
from .decompose import (
    Decomposition,
    ResourceSpec,
    SignedSignals,
    comm_cost_many,
    conditional_lower_bounds,
    min_comm_cost,
    resource_box,
    signed_signals,
)
from .errors import (
    BoxFormatError,
    BoxInvariantError,
    DomainError,
    Infeasible,
    NumericalError,
    WeightError,
)
from .measures import (
    SignalReport,
    binary_entropy,
    chsh,
    chsh_max,
    correlators,
    entropic_indeterminacy,
    entropic_indeterminacy_per_setting,
    entropic_signal,
    entropic_signal_lower_bound,
    indeterminacy,
    indeterminacy_per_setting,
    marginals,
    pironio_bound,
    signal,
    two_point_mutual_information,
)
from .simulate import (
    CHUNK,
    Direction,
    SweepPoint,
    chunk_xor_counts,
    simulate_singlet,
    sweep_angles,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
