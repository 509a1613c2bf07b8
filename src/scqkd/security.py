"""Security quantities: visibility, QBER, entropies, key rate, threshold.

The attack with probe angle upsilon reduces the interference visibility on
both-reflect rounds to V = cos(upsilon), which shows up as a QBER of
epsilon = (1 - V)/(2 - V) on the sifted key and hands the eavesdropper
information I_E = 1 - V per key bit.  The key survives while
I_B - I_E >= 0 with I_B = 1 - H(epsilon), i.e. while V >= H(epsilon(V));
the crossing sits near a 21% error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Choice, Outcome, OUTCOME_ORDER
from .protocol import (
    CHOICES_BY_CODE,
    HISTOGRAM_SHAPE,
    SessionConfig,
    SessionLog,
    _canonical,
    _csv_line,
    _sweep_histograms,
    run_session,  # noqa: F401  public here too: callers and tracers reach it through this module
)

_REFLECT = CHOICES_BY_CODE.index(Choice.REFLECT)
_D0 = OUTCOME_ORDER.index(Outcome.D0)
_D1 = OUTCOME_ORDER.index(Outcome.D1)


class InsufficientCheckDataError(ValueError):
    """The disclosed check subset is too small to estimate anything."""


def binary_entropy(p: float) -> float:
    """Shannon binary entropy in bits, with the 0 log 0 = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    # Evaluate on the larger of (p, 1-p): 1-q is then exact, which makes
    # H(p) == H(1-p) hold bit-for-bit.
    q = max(p, 1.0 - p)
    r = 1.0 - q
    return -q * math.log2(q) - r * math.log2(r)


def visibility_of_upsilon(upsilon: float) -> float:
    """Interference visibility on both-reflect rounds under the attack."""
    if not 0.0 <= upsilon <= math.pi / 2:
        raise ValueError(f"upsilon must lie in [0, pi/2], got {upsilon}")
    return math.cos(upsilon)


def epsilon_of_visibility(v: float) -> float:
    """Sifted-key error rate implied by visibility v: (1 - v)/(2 - v)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return (1.0 - v) / (2.0 - v)


def _informations(v: float) -> tuple[float, float, float]:
    """I_B, I_E and the key rate I_B - I_E per sifted bit at visibility v."""
    i_bob = 1.0 - binary_entropy(epsilon_of_visibility(v))
    i_eve = 1.0 - v
    return i_bob, i_eve, i_bob - i_eve


def key_rate(v: float) -> float:
    """I_B - I_E at visibility v: positive means a secret key is possible."""
    return _informations(v)[2]


def solve_threshold(tolerance: float = 1e-9) -> tuple[float, float]:
    """Locate the security threshold: the root of V - H((1-V)/(2-V)).

    Bisection on [0.5, 0.9], where the key rate is negative at the left
    end and positive at the right; iterates until the residual is within
    ``tolerance``.  Returns (v_star, epsilon_star).  When the bracket
    shrinks to two adjacent doubles first, no double has a residual within
    ``tolerance``, and a ``ValueError`` names the least residual reached.
    """
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    lo, hi = 0.5, 0.9
    least = math.inf
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = key_rate(mid)
        if abs(f_mid) <= tolerance:
            return mid, epsilon_of_visibility(mid)
        least = min(least, abs(f_mid))
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
    raise ValueError(f"tolerance {tolerance} is below the least residual the bisection "
                     f"reaches, {least:.3g}")


@dataclass(frozen=True)
class SecurityReport:
    """Analytic and estimated security quantities for one session."""

    upsilon: float | None
    visibility_analytic: float
    visibility_estimate: float
    visibility_se: float
    epsilon_analytic: float
    epsilon_estimate: float
    epsilon_se: float
    i_bob: float
    i_eve: float
    key_rate: float
    secure: bool

    def to_json(self) -> str:
        return _canonical(vars(self)) + "\n"


def estimate_from_session(log: SessionLog) -> SecurityReport:
    """Estimate visibility and QBER from the disclosed check subset.

    Visibility is the fringe contrast (N_D1 - N_D0)/(N_D1 + N_D0) over
    disclosed both-reflect rounds; the error rate is the fraction of
    disclosed D0 rounds whose choices failed to anti-correlate.  Mutual
    informations, the key rate, and the secure flag are derived from the
    visibility estimate (clamped into [0, 1] against sampling noise).
    Every count comes from the session's histogram of row codes, read as a
    one-row sweep by the code that ``sweep_reports`` runs.

    Raises:
        InsufficientCheckDataError: fewer than 100 disclosed both-reflect
            rounds.
    """
    return _reports([log.config.upsilon], log.histogram[None])[0]


def _reports(upsilons: list, histograms: np.ndarray) -> list[SecurityReport]:
    """The report of each row of ``histograms`` at its angle, in order.

    The counts of every row are read in one numpy pass and leave it as
    Python ints, so each report's floats are Python expressions on them.
    """
    # Disclosed rounds per (angle, alice, bob, outcome), summed over Eve's codes.
    checked = histograms.reshape(-1, *HISTOGRAM_SHAPE)[..., 1].sum(axis=4)
    d0 = checked[..., _D0]
    counts = zip(d0[:, _REFLECT, _REFLECT].tolist(),
                 checked[:, _REFLECT, _REFLECT, _D1].tolist(),
                 d0.sum(axis=(1, 2)).tolist())
    return [_report(upsilon, *row) for upsilon, row in zip(upsilons, counts, strict=True)]


def _report(upsilon: float | None, n_d0: int, n_d1: int, n_check_d0: int) -> SecurityReport:
    """One session's report from its disclosed Reflect/Reflect D0 and D1 and all disclosed D0."""
    n_ff = n_d0 + n_d1
    if n_ff < 100:
        raise InsufficientCheckDataError(
            f"need at least 100 disclosed Reflect/Reflect rounds, got {n_ff} "
            f"(D0: {n_d0}, D1: {n_d1}); increase n_rounds or check_fraction"
        )
    v_hat = (n_d1 - n_d0) / n_ff
    q = n_d0 / n_ff
    v_se = 2.0 * math.sqrt(q * (1.0 - q) / n_ff)

    if n_check_d0 > 0:
        # Of the disclosed D0 rounds, the Reflect/Reflect ones failed to anti-correlate.
        eps_hat = n_d0 / n_check_d0
        eps_se = math.sqrt(eps_hat * (1.0 - eps_hat) / n_check_d0)
    else:
        eps_hat = 0.0
        eps_se = 0.0

    v_analytic = visibility_of_upsilon(upsilon) if upsilon is not None else 1.0
    i_bob, i_eve, rate = _informations(min(max(v_hat, 0.0), 1.0))
    return SecurityReport(
        upsilon=upsilon,
        visibility_analytic=v_analytic,
        visibility_estimate=v_hat,
        visibility_se=v_se,
        epsilon_analytic=epsilon_of_visibility(v_analytic),
        epsilon_estimate=eps_hat,
        epsilon_se=eps_se,
        i_bob=i_bob,
        i_eve=i_eve,
        key_rate=rate,
        secure=rate >= 0.0,
    )


def sweep_reports(config: SessionConfig, upsilon_grid, workers: int = 1) -> list[SecurityReport]:
    """Estimate ``config`` at each grid angle, in input order, from one pass and no log.

    Every angle's histogram is a row of ``protocol._sweep_histograms``, and
    ``run_session`` at that angle holds the same row, so each report equals
    ``estimate_from_session`` of that angle's log.
    """
    configs, histograms = _sweep_histograms(config, upsilon_grid, workers)
    return _reports([c.upsilon for c in configs], histograms)


#: Column order of the sweep CSV.
SWEEP_COLUMNS = (
    "upsilon",
    "visibility",
    "epsilon_analytic",
    "epsilon_estimate",
    "i_bob",
    "i_eve",
    "key_rate",
    "secure",
)


def sweep_csv(reports: list[SecurityReport]) -> str:
    """Render sweep reports as CSV, one line per report in ``SWEEP_COLUMNS`` order."""
    return _csv_line(SWEEP_COLUMNS) + "".join(
        _csv_line((r.upsilon, r.visibility_estimate, r.epsilon_analytic, r.epsilon_estimate,
                   r.i_bob, r.i_eve, r.key_rate, r.secure))
        for r in reports
    )
