"""Reality and physicality predicates over conditional-probability tables.

A transmission scenario is summarized by P(outcome | alice op, bob op)
plus the probability that Bob's own detector fires when he blocks.  Two
predicates, at the fixed tolerance ``TOL``, classify the transmitted entity:

* real: some observation Alice can make locally lets her retrodict Bob's
  blocking action with certainty (posterior 1 by Bayes, at the prior
  ``PRIOR_BLOCK`` = 1/2);
* physical: an ideal intercepting detector always registers the entity --
  Bob's blocking always fires his detector, and his forwarding always
  produces a D1 click under Alice's Reflect setting.

Physical entities are also real, but not conversely: the interferometer's
transit state is real (a D0 click under her reflect setting certifies the
block) yet nonphysical (Bob's detector fires only half the time), which is
exactly the gap a probe-coupling eavesdropper closes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from types import MappingProxyType

from .core import Choice, Outcome, OUTCOME_ORDER, terminal_distribution

#: Scenario outcome alphabet: the interferometer terminals plus "nothing
#: was ever registered anywhere".
SCENARIO_OUTCOMES = (
    Outcome.D0.value,
    Outcome.D1.value,
    Outcome.ABSORBED_ALICE.value,
    Outcome.ABSORBED_BOB.value,
    "NoDetect",
)

OPS = (Choice.ABSORB.value, Choice.REFLECT.value)
#: The (alice op, bob op) keys of every scenario table.
_OP_PAIRS = frozenset(itertools.product(OPS, OPS))

#: What each terminal outcome looks like from Alice's station.  Bob-side
#: absorption is invisible to her; retrodiction may only condition on the
#: left-hand labels ("local observation").
ALICE_VIEW = MappingProxyType(
    {
        "D0": "D0",
        "D1": "D1",
        "AbsorbedAlice": "AbsorbedAlice",
        "AbsorbedBob": "Nothing",
        "NoDetect": "Nothing",
    }
)

#: Occurrence-probability floor for the existential scan over observations.
SUPPORT_ATOL = 1e-9

#: How far below certainty a posterior or a detection probability may fall.
TOL = 1e-6

#: Prior probability that Bob blocks.
PRIOR_BLOCK = 0.5


class IntegrityViolationError(RuntimeError):
    """A table claims to be physical but not real, which is impossible."""


class Classification(enum.Enum):
    REAL_PHYSICAL = "RealPhysical"
    REAL_NONPHYSICAL = "RealNonphysical"
    EPISTEMIC_NONPHYSICAL = "EpistemicNonphysical"


@dataclass(frozen=True)
class ScenarioTable:
    """Measured conditional probabilities for one transmission scenario.

    ``p_outcome_given_ops`` maps each (alice op, bob op) of ``OPS`` × ``OPS``,
    and no other key, to a distribution over ``SCENARIO_OUTCOMES``.
    ``p_bob_detects_given_block`` is the chance Bob's own detector fires when
    he blocks while the entity is in transit.
    """

    name: str
    p_outcome_given_ops: dict[tuple[str, str], dict[str, float]]
    p_bob_detects_given_block: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_bob_detects_given_block <= 1.0:
            raise ValueError("p_bob_detects_given_block must lie in [0, 1]")
        for ops, dist in self.p_outcome_given_ops.items():
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"distribution for {ops} sums to {total}, not 1")
            for outcome, p in dist.items():
                if outcome not in SCENARIO_OUTCOMES:
                    raise ValueError(f"unknown outcome label {outcome!r}")
                if not -1e-12 <= p <= 1.0 + 1e-12:
                    raise ValueError(f"probability out of range for {ops}/{outcome}")
        pairs = set(self.p_outcome_given_ops)
        for problem, found in (("unknown", pairs - _OP_PAIRS), ("missing", _OP_PAIRS - pairs)):
            if found:
                raise ValueError(f"{problem} operation pair {', '.join(sorted(map(repr, found)))}")

    def _observations(self) -> dict[tuple[str, str], tuple[float, float | None]]:
        """(occurrence, P(Bob blocked | it)) per (Alice's op, local observation).

        The posterior is None where the observation's occurrence is not positive.
        """
        weights: dict[tuple[str, str], list[float]] = {}
        for (alice_op, bob_op), dist in self.p_outcome_given_ops.items():
            b_index = OPS.index(bob_op)
            for outcome, p in dist.items():
                weights.setdefault((alice_op, ALICE_VIEW[outcome]), [0.0, 0.0])[b_index] += p
        observations = {}
        for key, (p_block, p_forward) in weights.items():
            occurrence = PRIOR_BLOCK * p_block + (1.0 - PRIOR_BLOCK) * p_forward
            posterior = PRIOR_BLOCK * p_block / occurrence if occurrence > 0.0 else None
            observations[key] = occurrence, posterior
        return observations

    def posterior_block(self, alice_op: str, observation: str) -> float:
        """P(Bob blocked | Alice saw ``observation`` under ``alice_op``)."""
        _, posterior = self._observations().get((alice_op, observation), (0.0, None))
        if posterior is None:
            raise ValueError(
                f"observation {observation!r} has zero probability under {alice_op!r}"
            )
        return posterior


def bayes_no_detection(p_psi: float, prior_block: float) -> float:
    """Posterior that Bob blocked, given Alice's non-detection.

    ``p_psi`` is the probability the entity actually travelled from the
    source past Bob's position; non-detection is certain under blocking
    but also occurs with probability 1 - p_psi without it.
    """
    if not 0.0 <= p_psi <= 1.0:
        raise ValueError(f"p_psi must lie in [0, 1], got {p_psi}")
    if not 0.0 < prior_block < 1.0:
        raise ValueError(f"prior_block must lie in (0, 1), got {prior_block}")
    return prior_block / ((1.0 - p_psi) + p_psi * prior_block)


def is_real(table: ScenarioTable) -> bool:
    """Can Alice ever retrodict Bob's blocking action with certainty?

    True when some (alice op, locally observable event) pair with
    occurrence probability above the support floor has a Bayes posterior
    for the blocking action of at least 1 - ``TOL``.
    """
    return any(
        occurrence >= SUPPORT_ATOL and posterior >= 1.0 - TOL
        for occurrence, posterior in table._observations().values()
    )


def is_physical(table: ScenarioTable) -> bool:
    """Is the entity always registered by an ideal intercepting detector?

    Requires Bob's detector to fire with certainty when he blocks, and a D1
    click under Alice's Reflect setting to be certain when he forwards.
    """
    if table.p_bob_detects_given_block < 1.0 - TOL:
        return False
    forward_row = table.p_outcome_given_ops[(Choice.REFLECT.value, Choice.REFLECT.value)]
    return forward_row.get(Outcome.D1.value, 0.0) >= 1.0 - TOL


def classify(table: ScenarioTable) -> Classification:
    """Place a scenario in the real/physical taxonomy.

    Raises:
        IntegrityViolationError: if the table is physical but not real,
            which the definitions rule out.
    """
    real = is_real(table)
    physical = is_physical(table)
    if physical and not real:
        raise IntegrityViolationError(
            f"scenario {table.name!r} is physical but not real; "
            "physicality must imply reality"
        )
    if real and physical:
        return Classification.REAL_PHYSICAL
    if real:
        return Classification.REAL_NONPHYSICAL
    return Classification.EPISTEMIC_NONPHYSICAL


def _classical_rows(p_psi: float) -> dict[tuple[str, str], dict[str, float]]:
    """Transport rows for the one-way classical scenario.

    The entity travels toward Bob with probability ``p_psi``; blocking
    absorbs it at his station, forwarding delivers it to Alice (observed
    as a D1 arrival).  Alice's own setting plays no role.
    """
    rows = {}
    for alice_op in OPS:
        rows[(alice_op, Choice.ABSORB.value)] = {
            "AbsorbedBob": p_psi,
            "NoDetect": 1.0 - p_psi,
        }
        rows[(alice_op, Choice.REFLECT.value)] = {
            "D1": p_psi,
            "NoDetect": 1.0 - p_psi,
        }
    return rows


def classical_ball_table() -> ScenarioTable:
    """Deterministic classical transport: the entity always travels."""
    return ScenarioTable(
        name="classical_ball",
        p_outcome_given_ops=_classical_rows(1.0),
        p_bob_detects_given_block=1.0,
    )


def classical_epistemic_table(p_psi: float) -> ScenarioTable:
    """Bernoulli transport: the description is a probability assignment."""
    if not 0.0 <= p_psi <= 1.0:
        raise ValueError(f"p_psi must lie in [0, 1], got {p_psi}")
    return ScenarioTable(
        name="classical_epistemic",
        p_outcome_given_ops=_classical_rows(p_psi),
        p_bob_detects_given_block=p_psi,
    )


def classical_wave_table() -> ScenarioTable:
    """Classical wave: amplitude splits down both arms every run.

    Bob's blocking always absorbs mass at his end and always shows up as a
    depleted signal (labelled D0) at Alice's; forwarding always returns
    the full signal (D1).
    """
    rows = {}
    for alice_op in OPS:
        rows[(alice_op, Choice.ABSORB.value)] = {"D0": 1.0}
        rows[(alice_op, Choice.REFLECT.value)] = {"D1": 1.0}
    return ScenarioTable(
        name="classical_wave",
        p_outcome_given_ops=rows,
        p_bob_detects_given_block=1.0,
    )


def quantum_table(upsilon: float | None = None) -> ScenarioTable:
    """Exact interferometer table, optionally under the probe attack.

    Bob's blocking setting absorbs the photon with probability 1/2 (the
    external arm's share), which is what breaks physicality.
    """
    rows = {}
    for alice in (Choice.ABSORB, Choice.REFLECT):
        for bob in (Choice.ABSORB, Choice.REFLECT):
            dist = terminal_distribution(alice, bob, upsilon)
            row = {o.value: dist.probability(o) for o in OUTCOME_ORDER}
            row["NoDetect"] = 0.0
            rows[(alice.value, bob.value)] = row
    block_row = rows[(Choice.REFLECT.value, Choice.ABSORB.value)]
    return ScenarioTable(
        name="quantum" if upsilon is None else "quantum_attacked",
        p_outcome_given_ops=rows,
        p_bob_detects_given_block=block_row["AbsorbedBob"],
    )


def canonical_tables() -> list[ScenarioTable]:
    """The four scenarios of the classification matrix, in print order."""
    return [
        classical_ball_table(),
        classical_wave_table(),
        classical_epistemic_table(0.5),
        quantum_table(),
    ]


def classification_matrix() -> list[dict]:
    """Classify the canonical scenarios; one row dict per scenario."""
    rows = []
    for table in canonical_tables():
        rows.append(
            {
                "scenario": table.name,
                "real": is_real(table),
                "physical": is_physical(table),
                "classification": classify(table).value,
            }
        )
    return rows
