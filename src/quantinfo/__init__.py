"""Classical and quantum information measures, cross-verified.

Shannon and quadratic information on distributions, von Neumann entropy and
total information on density operators, mutually unbiased bases with state
reconstruction, channel bounds (Holevo, accessible), typical sets and
question strategies, and two-qubit question accounting.
"""

from .errors import ValidationError
from .probability import (
    apply_doubly_stochastic,
    as_distribution,
    as_doubly_stochastic,
    as_joint_distribution,
    conditional_entropy,
    grouping_residual,
    majorizes,
    mutual_information,
    quadratic_information,
    random_distribution,
    random_doubly_stochastic,
    shannon_entropy,
    surprise,
)
from .coding import (
    PrefixCode,
    TypicalSetReport,
    block_question_rate,
    question_strategy,
    typical_set,
)
from .quantum import (
    as_basis,
    as_density,
    as_hermitian,
    basis_projectors,
    bloch_state,
    bloch_vector,
    born_probabilities,
    hs_distance,
    hs_inner_product,
    is_pure,
    luders_update,
    pure_state,
    purity,
    random_basis,
    random_density,
    smallest_eigenvalue,
    spectrum,
    spin_basis,
    total_information,
    von_neumann_entropy,
)
from .mub import (
    DeviationReport,
    born_table,
    build_mubs,
    hyperplane_orthogonality,
    information_by_basis,
    information_sum,
    reconstruct,
    verify_unbiased,
)
from .channel import (
    AccessibleInfo,
    CqEnsemble,
    WrongBasisReport,
    accessible_information,
    as_povm,
    cq_ensemble,
    holevo_chi,
    joint_distribution,
    measured_information,
    random_ensemble,
    random_povm,
    specification_information,
    wrong_basis_demo,
)
from .entangle import (
    InfoSplit,
    info_split,
    joint_eigenstate,
    pauli_product,
    proposition_information,
)
from .serialize import (
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    load_state,
    state_from_json,
    state_to_json,
)

__version__ = "0.1.0"
