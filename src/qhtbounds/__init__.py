"""Finite-blocklength and moderate-deviation bounds for quantum hypothesis testing.

The package computes concentration-based upper bounds on the optimal type-II
error of discriminating two sequences of quantum states, checks every bound
against an exact Neyman-Pearson oracle on small instances, certifies
factorization constants for correlated families (spin-chain Gibbs states,
memory-kernel families) and applies the machinery to classical-quantum
channel capacities.
"""

from .errors import (
    AdmissibilityError,
    CertificationError,
    ConvergenceError,
    DomainError,
    InvalidStateError,
    QhtError,
    ResourceError,
    SupportError,
)
from .numerics import eig_h, kron, mat_func, partial_trace, trace_norm
from .states import (
    DensityMatrix,
    density_matrix,
    from_bloch,
    maximally_mixed,
    product_state,
    pure_state,
    random_density,
    regularized,
    state_from_json,
    state_to_json,
    tensor_pow,
    to_bloch,
)
from .divergences import (
    binary_kl,
    hoeffding_distance,
    info_variance,
    rel_entropy,
    renyi,
    sandwiched_renyi,
    sym_error,
)
from .modular import (
    SpectralMeasure,
    measure_from_atoms,
    measure_mgf,
    product_measure,
    relative_modular_measure,
    sup_norm_c,
    tail,
)
from .np_oracle import (
    ErrorCurve,
    Type2Report,
    d_h,
    error_curve,
    optimal_type2,
    optimal_type2_hoeffding,
    optimal_type2_report,
)
from .concentration import (
    MartingaleModel,
    MODELS,
    azuma_tail,
    bennett_h,
    improved_azuma_tail,
    kearns_saul_constant,
    kearns_saul_tail,
    mc_martingale_harness,
)
from .bounds_iid import (
    BoundReport,
    amv_bounds,
    azuma_hoeffding_bound,
    azuma_stein_bound,
    crossover_eps,
    ks_hoeffding_bound,
    ks_stein_bound,
    phi_inv,
    q_curve,
    second_order_s1,
    second_order_s2,
)
from .bounds_corr import (
    bennett_alpha_bound,
    bennett_gap_limit,
    factorized_hoeffding_bound,
    factorized_stein_bound,
    moderate_lower,
    moderate_nonhomog,
    moderate_upper_form,
    nonhomog_hoeffding_bound,
    nonhomog_stein_bound,
)
from .fcs_gibbs import (
    CommutativeTriple,
    GeneratingTriple,
    GibbsChain,
    StateFamily,
    build_fcs,
    build_gibbs,
    certify_family,
    choi_from_kraus,
    commutative_fcs,
    decoupling_kernel,
    family_from_json,
    fcs_family,
    gibbs_family,
    kraus_from_choi,
    minimal_lower_R,
    minimal_upper_R,
    product_family,
)
from .cq_channel import (
    CapacityReport,
    CQChannel,
    CQChannelFamily,
    capacity_lower_factorized,
    capacity_lower_memoryless,
    capacity_moderate,
    channel_from_json,
    holevo_capacity,
    kernel_family,
    lifted_states,
    memoryless_family,
    wr_lower_bound,
)

__version__ = "0.1.0"
