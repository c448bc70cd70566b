"""nesslab: a finite-chain laboratory for current-carrying steady states.

Builds 1-d lattice models with finite-range translation-invariant
interactions, constructs stationary translation-invariant states with
nonvanishing current on periodic chains, and verifies at desk scale the
operator identities, locality bounds, sum rules and the energy-momentum
spectral singularity they imply.
"""

from .errors import ConfigError, GeometryError, NumericalCheckError, PreconditionError
from .operators import (
    ChainConfig,
    LocalOperator,
    arc_sites,
    comm_norm,
    commutator,
    embed,
    embed_sparse,
    extract_local,
    kron_le,
    operator_norm,
    product_operator,
    shift_unitary,
    translate,
)
from .models import (
    ChargeSpec,
    CurrentGeometry,
    Interaction,
    boundary_complements,
    build_fermion_model,
    build_random_interaction,
    build_xx_model,
    build_xxz_model,
    check_conservation,
    current_local,
    current_operator,
    energy_current_operators,
    energy_density,
    hamiltonian,
    lr_velocity,
    total_current,
)
from .dynamics import (
    LRBoundParams,
    deviation_bound_Z,
    lr_bound,
    lr_scan,
    lr_scan_csv,
    z_norms,
)
from .spectral import (
    JointBasis,
    WindowFunction,
    boundary_commutator_integral,
    correlation_kernel,
    joint_spectrum,
    momentum_derivative_check,
    singularity_diagnostic,
    spectral_function_rho,
    sum_rule_check,
)
from .steady_state import (
    BiasSpec,
    build_biased_gibbs,
    verify_ness,
)

__version__ = "0.1.0"
