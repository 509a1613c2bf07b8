"""Exact linear algebra for the two-arm interferometer with an optional probe.

A single photon enters a 50/50 beamsplitter and splits along an internal
arm ``a`` (at Alice's station) and an external arm ``b`` (out to Bob).
Each party holds a switch that either absorbs the photon or reflects it
back with a Faraday mirror; the returning amplitudes recombine at the
beamsplitter into detector modes D0 and D1.  An eavesdropper may couple a
two-dimensional probe to the path during the onward leg, tagging arm ``a``
with probe state ``|->`` and arm ``b`` with ``|+>``, where the two probe
states overlap by cos(upsilon).

States are tracked as one unnormalized probe vector per arm.  Squared
norms are absolute event probabilities, so absorbing a branch removes it
without renormalizing the remainder and every terminal distribution sums
to one per round.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Tolerance of the exact linear algebra.
ATOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Arm(enum.Enum):
    """Interferometer arm: A is internal (Alice), B is external (Bob)."""

    A = "a"
    B = "b"


class Choice(enum.Enum):
    """A party's switch mode for one round: absorb, or reflect back."""

    ABSORB = "Absorb"
    REFLECT = "Reflect"


class Outcome(enum.Enum):
    """Terminal event of a round: a detector click or an absorption."""

    D0 = "D0"
    D1 = "D1"
    ABSORBED_ALICE = "AbsorbedAlice"
    ABSORBED_BOB = "AbsorbedBob"


#: Canonical ordering used for sampling and serialization.
OUTCOME_ORDER = (
    Outcome.D0,
    Outcome.D1,
    Outcome.ABSORBED_ALICE,
    Outcome.ABSORBED_BOB,
)


def probe_reference() -> np.ndarray:
    """Initial probe state |0>_E, the first vector of the fixed basis."""
    return np.array([1.0, 0.0], dtype=complex)


def probe_pair(upsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Build the probe pair (|+>, |->) with overlap <-|+> = cos(upsilon).

    |+> = cos(u/2) e0 + sin(u/2) e1 and |-> = cos(u/2) e0 - sin(u/2) e1,
    the simplest real-coordinate pair realizing the required overlap.

    Args:
        upsilon: separation angle in radians, within [0, pi/2].
    """
    if not 0.0 <= upsilon <= math.pi / 2:
        raise ValueError(f"upsilon must lie in [0, pi/2], got {upsilon}")
    half = 0.5 * upsilon
    plus = np.array([math.cos(half), math.sin(half)], dtype=complex)
    minus = np.array([math.cos(half), -math.sin(half)], dtype=complex)
    return plus, minus


@dataclass(frozen=True)
class JointState:
    """Photon path modes tensored with the probe: one probe branch per arm.

    ``amp_a`` and ``amp_b`` are unnormalized probe-coordinate vectors whose
    squared norms give the probability of the photon occupying each arm.
    """

    amp_a: np.ndarray
    amp_b: np.ndarray

    def __post_init__(self) -> None:
        for name in ("amp_a", "amp_b"):
            vec = np.asarray(getattr(self, name), dtype=complex)
            if vec.shape != (2,):
                raise ValueError(f"{name} must be a length-2 probe vector")
            if not np.all(np.isfinite(vec.view(float))):
                raise ValueError(f"{name} has non-finite components")
            object.__setattr__(self, name, vec.copy())
        if self.total_weight > 1.0 + ATOL:
            raise ValueError(
                f"total squared norm {self.total_weight} exceeds 1"
            )

    @property
    def total_weight(self) -> float:
        """Total squared norm over both arms (1 while nothing is absorbed)."""
        return self.arm_weight(Arm.A) + self.arm_weight(Arm.B)

    def arm_weight(self, arm: Arm) -> float:
        amp = self.amp_a if arm is Arm.A else self.amp_b
        return float(np.vdot(amp, amp).real)


def make_initial_state() -> JointState:
    """State just after the input beamsplitter: (a + i b)/sqrt(2), probe at rest."""
    e0 = probe_reference()
    return JointState(amp_a=_INV_SQRT2 * e0, amp_b=1j * _INV_SQRT2 * e0)


def eve_interaction(state: JointState, upsilon: float) -> JointState:
    """Entangle the probe with the path during the onward leg.

    The arm-a branch acquires probe state |-> and the arm-b branch |+>,
    leaving the path amplitudes (including the beamsplitter phase i on
    arm b) untouched.  The map is an isometry: norms are preserved.

    Raises:
        ValueError: if the probe is no longer in its reference state
            (already entangled or rotated), where the interaction is
            undefined.
    """
    if abs(state.amp_a[1]) > ATOL or abs(state.amp_b[1]) > ATOL:
        raise ValueError(
            "probe is not in its reference state; the onward-leg "
            "interaction is defined only before any entanglement"
        )
    plus, minus = probe_pair(upsilon)
    return JointState(amp_a=state.amp_a[0] * minus, amp_b=state.amp_b[0] * plus)


def apply_switch(
    state: JointState, arm: Arm, choice: Choice
) -> tuple[JointState, float, np.ndarray | None]:
    """Apply one party's switch to its arm.

    Reflect leaves the branch unchanged (Faraday mirror = identity by
    convention).  Absorb removes the branch and reports its squared norm
    as the absorption probability; the remaining state is deliberately
    left unnormalized so downstream probabilities stay absolute.

    Returns:
        (new_state, absorbed_weight, absorbed_probe) where absorbed_probe
        is the normalized probe conditioned on the absorption, or None
        when nothing was absorbed (weight 0).
    """
    if choice is Choice.REFLECT:
        return state, 0.0, None
    weight, probe = _normalized_or_none(state.amp_a if arm is Arm.A else state.amp_b)
    zero = np.zeros(2, dtype=complex)
    if arm is Arm.A:
        new_state = JointState(amp_a=zero, amp_b=state.amp_b)
    else:
        new_state = JointState(amp_a=state.amp_a, amp_b=zero)
    return new_state, weight, probe


def recombine_at_beamsplitter(
    state: JointState,
) -> tuple[np.ndarray, np.ndarray]:
    """Map returned arm amplitudes onto the detector modes.

    Detector branch j carries (amp_a + (-1)^j i amp_b)/sqrt(2), applied
    componentwise on the probe coordinates; the transform is unitary.
    """
    d0 = (state.amp_a + 1j * state.amp_b) * _INV_SQRT2
    d1 = (state.amp_a - 1j * state.amp_b) * _INV_SQRT2
    return d0, d1


def _normalized_or_none(branch: np.ndarray) -> tuple[float, np.ndarray | None]:
    weight = float(np.vdot(branch, branch).real)
    if weight <= ATOL:
        return 0.0, None
    return weight, branch / math.sqrt(weight)


@dataclass(frozen=True)
class OutcomeEntry:
    """One terminal outcome with its probability and post-selected probe."""

    outcome: Outcome
    probability: float
    probe: np.ndarray | None


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact terminal probabilities for one round, in canonical order."""

    entries: tuple[OutcomeEntry, ...]

    def __post_init__(self) -> None:
        total = sum(e.probability for e in self.entries)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        for e in self.entries:
            if not -ATOL <= e.probability <= 1.0 + ATOL:
                raise ValueError(f"probability out of range for {e.outcome}")
            if e.probe is not None:
                norm = float(np.vdot(e.probe, e.probe).real)
                if abs(norm - 1.0) > 1e-9:
                    raise ValueError(
                        f"conditional probe for {e.outcome} is not normalized"
                    )

    def probability(self, outcome: Outcome) -> float:
        for e in self.entries:
            if e.outcome is outcome:
                return e.probability
        raise KeyError(outcome)

    def probe(self, outcome: Outcome) -> np.ndarray | None:
        for e in self.entries:
            if e.outcome is outcome:
                return e.probe
        raise KeyError(outcome)


def terminal_distribution(
    alice: Choice, bob: Choice, eve_upsilon: float | None = None
) -> OutcomeDistribution:
    """Exact outcome probabilities for one round of switch choices.

    Runs the full pipeline: beamsplitter input, optional probe coupling,
    both switches, and recombination.  Each outcome carries its normalized
    conditional probe (None for zero-probability outcomes).
    """
    state = make_initial_state()
    if eve_upsilon is not None:
        state = eve_interaction(state, eve_upsilon)
    state, w_alice, probe_alice = apply_switch(state, Arm.A, alice)
    state, w_bob, probe_bob = apply_switch(state, Arm.B, bob)
    d0, d1 = recombine_at_beamsplitter(state)
    p0, probe0 = _normalized_or_none(d0)
    p1, probe1 = _normalized_or_none(d1)
    return OutcomeDistribution(
        entries=(
            OutcomeEntry(Outcome.D0, p0, probe0),
            OutcomeEntry(Outcome.D1, p1, probe1),
            OutcomeEntry(Outcome.ABSORBED_ALICE, w_alice, probe_alice),
            OutcomeEntry(Outcome.ABSORBED_BOB, w_bob, probe_bob),
        )
    )


@dataclass(frozen=True)
class PovmSet:
    """Three-outcome unambiguous discrimination of the probe pair.

    P+ annihilates |-> and P- annihilates |+>, so a conclusive outcome can
    never point at the wrong state; P0 = I - P+ - P- absorbs the rest.
    """

    p_plus: np.ndarray
    p_minus: np.ndarray
    p_zero: np.ndarray

    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.p_plus, self.p_minus, self.p_zero

    def outcome_probabilities(self, probe: np.ndarray) -> np.ndarray:
        """Born probabilities (plus, minus, inconclusive) for a normalized probe."""
        probe = np.asarray(probe, dtype=complex)
        probs = np.array(
            [float(np.vdot(probe, m @ probe).real) for m in self.elements()]
        )
        return np.clip(probs, 0.0, 1.0)


def build_povm(upsilon: float) -> PovmSet:
    """Construct the optimal unambiguous-discrimination POVM for angle upsilon.

    P_plusminus = (I - |neg><neg|)/(1 + cos upsilon) with |neg> the state
    to be excluded; P0 completes the set to identity.

    Raises:
        ValueError: for upsilon = 0 (identical probe states; discrimination
            undefined) or out-of-range angles.
    """
    if not 0.0 < upsilon <= math.pi / 2:
        raise ValueError(
            f"upsilon must lie in (0, pi/2] for discrimination, got {upsilon}"
        )
    plus, minus = probe_pair(upsilon)
    scale = 1.0 / (1.0 + math.cos(upsilon))
    eye = np.eye(2, dtype=complex)
    p_plus = scale * (eye - np.outer(minus, minus.conj()))
    p_minus = scale * (eye - np.outer(plus, plus.conj()))
    p_zero = eye - p_plus - p_minus
    return PovmSet(p_plus=p_plus, p_minus=p_minus, p_zero=p_zero)
