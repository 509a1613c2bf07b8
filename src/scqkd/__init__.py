"""Semi-counterfactual quantum key distribution simulator.

Exact single-photon interferometer simulation with switch-based key
generation, a probe-entangling eavesdropper with unambiguous state
discrimination, closed-form and empirical security analysis, and
reality/physicality classifiers over transmission scenarios.

The package root exports what the README and the demos use; everything
else is imported from its submodule (``scqkd.core``, ``scqkd.protocol``,
``scqkd.eve``, ``scqkd.security``, ``scqkd.ontology``,
``scqkd.randomness``).
"""

from .core import Choice, Outcome, make_initial_state, terminal_distribution
from .eve import eve_information
from .ontology import classification_matrix, quantum_table
from .protocol import SessionConfig, run_session, sift
from .security import estimate_from_session, solve_threshold

__version__ = "0.1.0"

__all__ = [
    "Choice",
    "Outcome",
    "SessionConfig",
    "classification_matrix",
    "estimate_from_session",
    "eve_information",
    "make_initial_state",
    "quantum_table",
    "run_session",
    "sift",
    "solve_threshold",
    "terminal_distribution",
]
