"""Graph-cover counting toolkit for Bethe analysis of normal factor graphs."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .bethe import (
    BetheEvaluation,
    MinimizeResult,
    ZBetheM,
    bethe_energy_from_cover,
    bethe_terms,
    check_local_consistency,
    emit_beta,
    minimize_bethe,
    parse_beta,
    zbethe_m_enumeration,
    zbethe_m_typesum,
)
from .bme import BmeResult, bme_completion, induced_bethe_entropy
from .coding import (
    Channel,
    DecodeResult,
    DecodingNfg,
    ParityCheckMatrix,
    attach_channel,
    bgcd,
    bmapd,
    check_represents_code,
    cycle_code_zgibbs,
    fundamental_projection,
    nfg_from_parity_check,
    sgcd,
    smapd,
)
from .covers import (
    CoverSpec,
    PreimageCensus,
    PseudoMarginals,
    beta_from_configuration,
    build_cover,
    count_covers,
    emit_cover_spec,
    entropy_rate_estimate,
    enumerate_covers,
    lift_realizable_set,
    parse_cover_spec,
    phi_m,
    preimage_count_bruteforce,
    preimage_count_closedform,
    random_cover,
)
from .gibbs import (
    enumerate_configurations,
    gibbs_energy_terms,
    gibbs_free_energy,
    gibbs_minimizer,
    gibbs_partition,
    global_function,
    modified_gibbs_partition,
)
from .ldpc_curves import curve_scan, h_curve, omega_of_s, s_of_omega, theta
from .nfg import Factor, Nfg, emit_nfg_text, parse_nfg, parse_nfg_text, parity_table, repetition_table
from .spa import SpaState, sum_product
from .typevectors import (
    TypeVector,
    mean_vector,
    sequence_probability_weight,
    type_class_growth_rate,
    type_class_size,
    type_of_sequence,
)

__version__ = "0.1.0"
