"""Eavesdropper strategy: probe measurement after the announcement.

Eve couples her probe to the photon path on the onward leg (see
``core.eve_interaction``), stores the probe, and waits.  When Alice
announces a D0 round, Eve measures the stored probe with the unambiguous
discrimination POVM: outcome Plus means the photon took the external arm,
Minus the internal arm, and Inconclusive nothing.  A conclusive outcome
combined with the D0 announcement pins down both parties' choices and
hence the shared key bit: Plus means Alice absorbed (bit 0), Minus that
she reflected (bit 1); ``protocol.sift`` turns her codes into these
guesses.  On all other rounds she discards the probe.
"""

from __future__ import annotations

import enum
import math


class EveOutcome(enum.Enum):
    """Result of the discrimination measurement on one stored probe."""

    PLUS = "Plus"
    MINUS = "Minus"
    INCONCLUSIVE = "Inconclusive"


#: Sampling and wire order of the POVM outcomes.
EVE_OUTCOME_ORDER = (EveOutcome.PLUS, EveOutcome.MINUS, EveOutcome.INCONCLUSIVE)


def eve_information(upsilon: float) -> float:
    """Eve's per-bit information on the raw key: the conclusive-outcome rate.

    Over an ensemble of the two probe states this equals 1 - cos(upsilon).
    """
    if not 0.0 <= upsilon <= math.pi / 2:
        raise ValueError(f"upsilon must lie in [0, pi/2], got {upsilon}")
    return 1.0 - math.cos(upsilon)
