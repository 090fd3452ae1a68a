"""Exact simulator and verifier for probabilistic quantum teleportation
and entanglement swapping over partially entangled two-qubit resources."""

from .complexfmt import format_complex, parse_complex
from .ebasis import (
    BASIS_LABELS,
    BasisParams,
    EntangledBasis,
    basis_entropy,
    expand_computational,
    general_basis,
    resource_state,
)
from .errors import (
    BadInput,
    BadPair,
    BadSubset,
    CompletenessError,
    LabelCollision,
    LabelMismatch,
    NonFinite,
    NormalizationError,
    NotUnitary,
    ParseError,
    ShapeError,
    SingularMatrix,
    TeleportrixError,
)
from .measure import MeasurementOutcome, project_all, sample
from .qcore import (
    DensityMatrix,
    PureState,
    SchmidtForm,
    apply_unitary,
    basis_state,
    entropy,
    fidelity,
    make_state,
    reduced_density,
    schmidt,
    states_close,
    tensor,
)
from .swap import (
    SwapOutcome,
    SwapParams,
    SwapRegimeReport,
    classify_swap,
    classify_swap_outcomes,
    phase_matched_choice,
    swap_inputs,
    swap_run,
    three_outcome_swap_probability,
    two_outcome_choice,
    two_outcome_swap_probability,
)
from .teleport import (
    InputBatch,
    OutcomeRecord,
    ProtocolBranches,
    ProtocolParams,
    RegimeReport,
    RunResult,
    TransferMatrix,
    branch_probability,
    check_completeness,
    classify,
    correction_unitary,
    evaluate_inputs,
    expected_repetitions,
    haar_inputs,
    is_faithful,
    joint_state,
    measured_probabilities,
    one_faithful_choice,
    one_faithful_labels,
    protocol_branches,
    repetition_counts,
    run,
    sample_outcomes,
    success_probability_analytic,
    transfer_matrices,
    two_faithful_choice,
    two_faithful_labels,
)

__version__ = "0.1.0"
