"""High-SNR capacity analysis of non-coherent fading networks.

The package answers one question about a network whose fading matrix has a
fixed zero pattern and is known to nobody: how fast can reliable
communication scale when the power budget grows without bound?  The answer
is combinatorial.  The longest "power chain" of the zero pattern, an ordered
set of transmitters each reaching some receiver its predecessors miss, sets
the coefficient of the log log SNR capacity growth.  Everything here orbits
that fact: exact chain computation, layered power allocations realizing the
growth, analytic rate bounds in both directions, and seeded Monte Carlo
estimates sitting between them.

All rates are in nats; all logarithms are natural.
"""

from .topology import (
    GENERATOR_KINDS,
    PruneResult,
    Topology,
    generate,
    load_topology,
    parse_generator_spec,
    prune,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from .powerchain import (
    ChainDecomposition,
    PowerChain,
    SizeGuardError,
    decompose,
    is_power_chain,
    longest_chain,
    validate_chain,
)
from .fading import (
    FadingModel,
    block_mutual_information,
    fading_model_from_dict,
    fading_model_to_dict,
    load_fading_model,
    log_h_squared_mean,
    memory_gap_ar1,
    save_fading_model,
)
from .bounds import (
    AllocationInfeasibleError,
    BoundReport,
    Plan,
    PowerAllocation,
    allocation,
    alpha_penalty,
    converse_envelope,
    converse_envelope_report,
    duality_upper_bound,
    effective_noise_variance,
    evaluate,
    interference_penalty,
    min_valid_snr,
    plan,
    scalar_mi_lower_bound,
    scheme_rate_lower_bound,
)
from .simulate import (
    MiEstimate,
    SweepRecord,
    estimate_pair_mi,
    fit_loglog_slope,
    records_to_csv,
    records_to_json,
    snr_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "GENERATOR_KINDS",
    "PruneResult",
    "Topology",
    "generate",
    "load_topology",
    "parse_generator_spec",
    "prune",
    "save_topology",
    "topology_from_dict",
    "topology_to_dict",
    "ChainDecomposition",
    "PowerChain",
    "SizeGuardError",
    "decompose",
    "is_power_chain",
    "longest_chain",
    "validate_chain",
    "FadingModel",
    "block_mutual_information",
    "fading_model_from_dict",
    "fading_model_to_dict",
    "load_fading_model",
    "log_h_squared_mean",
    "memory_gap_ar1",
    "save_fading_model",
    "AllocationInfeasibleError",
    "BoundReport",
    "Plan",
    "PowerAllocation",
    "allocation",
    "alpha_penalty",
    "converse_envelope",
    "converse_envelope_report",
    "duality_upper_bound",
    "effective_noise_variance",
    "evaluate",
    "interference_penalty",
    "min_valid_snr",
    "plan",
    "scalar_mi_lower_bound",
    "scheme_rate_lower_bound",
    "MiEstimate",
    "SweepRecord",
    "estimate_pair_mi",
    "fit_loglog_slope",
    "records_to_csv",
    "records_to_json",
    "snr_sweep",
    "__version__",
]
