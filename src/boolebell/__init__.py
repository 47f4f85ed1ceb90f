"""Exact sign-sequence arithmetic, quantum-statistics samplers, local
hidden-variable counter-models, and statistical certification experiments
around the three-sequence correlation bound |<f,g> - <f,h>| + <g,h> <= 1.
"""

from .sequences import (
    BRUTE_FORCE_MAX_LENGTH,
    CorrelationEstimate,
    EmptySequence,
    LengthMismatch,
    LengthTooLarge,
    SignSequence,
    boole_bell_lhs,
    boole_bell_lhs_exact,
    boole_bell_lhs_prob,
    brute_force_max_lhs,
    coincidence_probability,
    concatenate,
    correlation,
)
from .geometry import (
    SLOT_ASSIGNMENTS,
    ColinearAxes,
    InvalidProbability,
    UnitVector3,
    WitnessReport,
    angle_between,
    assignment_optimum,
    clamp_unit_dot,
    geometric_witness,
    malus_lhs_all_assignments,
    optimal_witness,
)
from .rng import RngStream
from .sampler import (
    PreparedSource,
    random_signs,
    sample_prepared,
    sample_singlet,
    sample_singlet_partner,
)
from .realism import (
    MODEL_NAMES,
    CommitmentToken,
    LhvModel,
    MissingHiddenState,
    OrderingViolation,
    choose_direction,
    commit,
    counterfactual_values,
    make_lhv_model,
    measure,
    sample_lhv,
    sign_model_correlation,
)
from .experiments import (
    FEASIBILITY_MAX_LENGTH,
    ApCertificate,
    ApRow,
    ExperimentConfig,
    FeasibilityResult,
    InequalityReport,
    NoApBpResult,
    TriangleLeg,
    certify_ap,
    feasibility_bruteforce,
    no_apbp_experiment,
    prepared_ap_experiment,
    singlet_ap_experiment,
)

__version__ = "0.1.0"
