"""Quantum Fisher information witnesses and bounds.

Closed-form QFI baselines, random-state expectations over full and
symmetric ensembles, concentration bounds, entanglement-depth caps,
graph-Hamiltonian censuses, and constructive net audits.  The heavy
lifting lives in the submodules; this package root re-exports the
entry points most callers need.
"""

import types

from .gme import (
    cap_state,
    gme,
    gme_threshold,
    qfi_cap,
    symmetric_weight_qfi,
    symmetrize_amplitudes,
    verify_result2,
)
from .graphs import (
    InteractionGraph,
    census,
    census_bruteforce,
    census_by_degrees,
    preset_graph,
    product_qfi_at,
    qfi_witnesses,
    sample_graph,
    scaling_report,
    to_hamiltonian,
)
from .hamiltonians import (
    GraphHamiltonian,
    LinearHamiltonian,
    ProductDiagonalHamiltonian,
    SingleSiteOperator,
    from_spec_text,
    named_basis,
    read_spec,
    sample_linear,
    sample_product_diagonal,
    to_spec_text,
    write_spec,
)
from .nets import (
    BoundParams,
    build_linear_net,
    coefficient_grid,
    epsilon_choices,
    net_cover_audit,
    net_size_bound,
    property_audit,
    pure_state_net_qubit,
    theorem_bound,
)
from .numerics import (
    DomainError,
    Rng,
    haar_unitary,
    hermitian_eig,
    kron_all,
    random_hermitian,
    spectral_norm,
    spectral_spread,
)
from .qfi import (
    ConcentrationBound,
    expected_qfi_haar,
    expected_qfi_haar_linear,
    expected_qfi_symmetric,
    expected_qfi_symmetric_linear,
    global_unitary_transport,
    levy_bound,
    max_qfi_symmetric_product,
    optimal_separable_reference,
    product_qfi_closed_form,
    qfi,
    qfi_batch,
    symmetric_product_state,
)
from .states import (
    DickeBasis,
    PureState,
    dicke_basis,
    ghz,
    normalized_state,
    product_state,
    read_state,
    sample_symmetric,
    superposition_state,
    write_state,
)

__version__ = "0.1.0"

# Every public name bound above except the submodules themselves.
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + ["__version__"]
