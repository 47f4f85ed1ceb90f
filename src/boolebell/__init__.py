"""Exact sign-sequence arithmetic, quantum-statistics samplers, local
hidden-variable counter-models, and statistical certification experiments
around the three-sequence correlation bound |<f,g> - <f,h>| + <g,h> <= 1.

Importing the package loads none of its modules: each name below is
imported from the module that defines it on first use (PEP 562).
``_EXPORTS`` below is the only list of public names: no module keeps an
``__all__`` of its own.
"""

import importlib

__version__ = "0.4.0"

# defined here so the CLI can offer --model choices without loading realism
MODEL_NAMES = ("sign-circle", "sign-sphere")

_EXPORTS = {
    "sequences": (
        "BRUTE_FORCE_MAX_LENGTH", "CorrelationEstimate", "EmptySequence", "LengthMismatch",
        "LengthTooLarge", "SignSequence", "boole_bell_lhs", "boole_bell_lhs_exact",
        "boole_bell_lhs_prob", "brute_force_max_lhs", "coincidence_probability", "concatenate",
        "correlation",
    ),
    "geometry": (
        "SLOT_ASSIGNMENTS", "ColinearAxes", "InvalidProbability", "UnitVector3", "WitnessReport",
        "angle_between", "assignment_optimum", "clamp_unit_dot", "geometric_witness",
        "malus_lhs_all_assignments", "optimal_witness",
    ),
    "rng": ("RngStream",),
    "sampler": (
        "PreparedSource", "random_signs", "sample_prepared", "sample_singlet",
        "sample_singlet_partner",
    ),
    "realism": (
        "MODEL_NAMES", "CommitmentToken", "LhvModel", "MissingHiddenState", "OrderingViolation",
        "choose_direction", "commit", "counterfactual_values", "make_lhv_model", "measure",
        "sample_lhv", "sign_model_correlation",
    ),
    "experiments": (
        "FEASIBILITY_MAX_LENGTH", "ApCertificate", "ApRow", "ExperimentConfig",
        "FeasibilityResult", "InequalityReport", "NoApBpResult", "TriangleLeg", "certify_ap",
        "feasibility_bruteforce", "no_apbp_experiment", "prepared_ap_experiment",
        "singlet_ap_experiment",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as `import boolebell; boolebell.rng` expects
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
