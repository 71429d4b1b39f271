"""One-shot information quantities, explicit bounds, and protocol
simulators for randomness extraction and soft covering on
classical-quantum states.

All reported entropic values are in bits (log base 2).
"""

from .bounds import (
    BoundReport,
    covering_direct_bound,
    covering_size_bounds,
    pa_direct_bound,
    pa_size_bounds,
    validate_sandwich_params,
)
from .cq import (
    CQState,
    JointEmbedding,
    TypeClassSpectrum,
    dump_state,
    iid_type_spectrum,
    joint_embed,
    load_state,
    state_from_document,
    state_to_document,
)
from .divergences import (
    DivergencePair,
    collision_divergence,
    hypothesis_test_divergence,
    info_spectrum_divergence,
    info_spectrum_divergence_bracket,
    relative_entropy,
    relative_entropy_variance,
)
from .entropic import (
    RateExpansion,
    conditional_entropy_with_variance,
    conditional_test_entropy,
    gaussian_cdf,
    hypothesis_test_information,
    moderate_rate,
    mutual_information_with_variance,
    normal_quantile,
    second_order_value,
)
from .errors import DomainError, NumericalError
from .linalg import (
    as_hermitian,
    pinch,
    positive_part_trace,
    projector_leq,
    quotient,
    spec_count,
    trace_norm,
)
from .rates import (
    SweepRow,
    classical_relative_entropy,
    classical_relative_entropy_variance,
    iid_test_divergence,
    moderate_sweep,
    second_order_sweep,
)
from .simulate import (
    SearchResult,
    SimulationEstimate,
    search_max_extractable,
    search_min_codebook,
    simulate_covering,
    simulate_pa,
)

__version__ = "0.1.0"
