"""Semi-counterfactual quantum key distribution simulator.

Exact single-photon interferometer simulation with switch-based key
generation, a probe-entangling eavesdropper with unambiguous state
discrimination, closed-form and empirical security analysis, and
reality/physicality classifiers over transmission scenarios.
"""

from .core import (
    Arm,
    Choice,
    JointState,
    Outcome,
    OutcomeDistribution,
    OutcomeEntry,
    OUTCOME_ORDER,
    PovmSet,
    apply_switch,
    build_povm,
    eve_interaction,
    make_initial_state,
    probe_pair,
    probe_reference,
    recombine_at_beamsplitter,
    terminal_distribution,
)
from .eve import (
    EveOutcome,
    eve_guess,
    eve_information,
)
from .ontology import (
    Classification,
    IntegrityViolationError,
    ScenarioTable,
    bayes_no_detection,
    classical_ball_table,
    classical_epistemic_table,
    classical_wave_table,
    classification_matrix,
    classify,
    is_physical,
    is_real,
    quantum_table,
)
from .protocol import (
    Announcement,
    RoundRecord,
    SessionConfig,
    SessionLog,
    SiftedKey,
    disclose_check_subset,
    run_session,
    sift,
)
from .randomness import philox_stream
from .security import (
    InsufficientCheckDataError,
    SecurityReport,
    binary_entropy,
    epsilon_of_visibility,
    estimate_from_session,
    key_rate,
    solve_threshold,
    sweep_csv,
    sweep_reports,
    visibility_of_upsilon,
)

__version__ = "0.1.0"

__all__ = [
    "Announcement",
    "Arm",
    "Choice",
    "Classification",
    "EveOutcome",
    "IntegrityViolationError",
    "InsufficientCheckDataError",
    "JointState",
    "OUTCOME_ORDER",
    "Outcome",
    "OutcomeDistribution",
    "OutcomeEntry",
    "PovmSet",
    "RoundRecord",
    "ScenarioTable",
    "SecurityReport",
    "SessionConfig",
    "SessionLog",
    "SiftedKey",
    "apply_switch",
    "bayes_no_detection",
    "binary_entropy",
    "build_povm",
    "classical_ball_table",
    "classical_epistemic_table",
    "classical_wave_table",
    "classification_matrix",
    "classify",
    "disclose_check_subset",
    "epsilon_of_visibility",
    "estimate_from_session",
    "eve_guess",
    "eve_information",
    "eve_interaction",
    "is_physical",
    "is_real",
    "key_rate",
    "make_initial_state",
    "philox_stream",
    "probe_pair",
    "probe_reference",
    "quantum_table",
    "recombine_at_beamsplitter",
    "run_session",
    "sift",
    "solve_threshold",
    "sweep_csv",
    "sweep_reports",
    "terminal_distribution",
    "visibility_of_upsilon",
]
