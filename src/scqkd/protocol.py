"""Round-by-round driver for the semi-counterfactual key distribution session.

Each round both parties draw a uniformly random switch mode, the photon's
terminal outcome is sampled from the exact distribution, and Alice
publicly announces only whether detector D0 fired.  D0 rounds form the
raw key: Alice's bit is 1 when she reflected, Bob's bit is 1 when he
absorbed, so the bits agree exactly when the choices were anti-correlated
(always, absent an eavesdropper).  A configurable check subset of rounds
is disclosed for parameter estimation and excluded from the key.

Sessions are reproducible: all per-round randomness comes from the
counter-based stream (seed, ROUND_STREAM) and disclosure from
(seed, DISCLOSE_STREAM), so a log is a pure function of its config and
cannot depend on the worker count used to compute it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import OUTCOME_ORDER, Choice, Outcome, build_povm, terminal_distribution
from .eve import EVE_OUTCOME_ORDER, EveOutcome
from .randomness import DISCLOSE_STREAM, ROUND_STREAM, philox_stream

#: Choice encoding used by the columnar log (index into this tuple).
CHOICES_BY_CODE = (Choice.ABSORB, Choice.REFLECT)
_D0 = OUTCOME_ORDER.index(Outcome.D0)
_EVE_ABSENT = -1

_MAX_SEED = 2**64 - 1

#: Rounds per task of the session's thread pool.  Results never depend on it.
SAMPLING_BLOCK = 2**16


class Announcement(enum.Enum):
    """Alice's public per-round announcement: D0, or anything else."""

    D0 = "D0"
    NOT_D0 = "NotD0"


def _is_integer(value) -> bool:
    """True for int and numpy integers; bool is a flag, not a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for integers and floats, numpy's included; bool is a flag, not a number."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class SessionConfig:
    """Physical session parameters; echoed verbatim into every artifact."""

    n_rounds: int
    upsilon: float | None = None
    seed: int = 0
    check_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not _is_integer(self.n_rounds) or self.n_rounds < 1:
            raise ValueError(f"n_rounds must be a positive integer, got {self.n_rounds!r}")
        if self.upsilon is not None and not (
            _is_real(self.upsilon) and 0.0 <= self.upsilon <= math.pi / 2
        ):
            raise ValueError(f"upsilon must lie in [0, pi/2] or be absent, got {self.upsilon!r}")
        if not _is_integer(self.seed) or not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not _is_real(self.check_fraction) or not 0.0 <= self.check_fraction <= 1.0:
            raise ValueError(f"check_fraction must lie in [0, 1], got {self.check_fraction!r}")
        # Stored as Python numbers so that equal configs serialize to equal bytes.
        object.__setattr__(self, "n_rounds", int(self.n_rounds))
        object.__setattr__(self, "seed", int(self.seed))
        if self.upsilon is not None:
            object.__setattr__(self, "upsilon", float(self.upsilon))
        object.__setattr__(self, "check_fraction", float(self.check_fraction))

    @property
    def attack_active(self) -> bool:
        """True when an eavesdropper with a distinguishable probe is present."""
        return self.upsilon is not None and self.upsilon > 0.0

    def as_dict(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "upsilon": self.upsilon,
            "seed": self.seed,
            "check_fraction": self.check_fraction,
        }


@dataclass(frozen=True)
class RoundRecord:
    """Everything known about one round, including Eve's private data."""

    round_id: int
    alice_choice: Choice
    bob_choice: Choice
    outcome: Outcome
    announced: Announcement
    eve_probe: np.ndarray | None
    eve_result: EveOutcome | None
    sifted: bool
    disclosed_for_check: bool


@dataclass(frozen=True)
class SamplingTables:
    """Inverse-CDF thresholds for one probe angle, rows indexed by choice pair.

    The pair code is ``2 * alice + bob`` in ``CHOICES_BY_CODE`` codes.  Row
    ``outcome_cum[pair]`` is the cumulative distribution over
    ``OUTCOME_ORDER``; row ``eve_cum[pair]`` is the cumulative POVM
    distribution over ``EVE_OUTCOME_ORDER`` on that pair's D0 probe
    (``eve_cum`` is None without an attack).  ``d0_probes[pair]`` is the
    probe Eve stores on a D0 round, or None when D0 is impossible.
    """

    outcome_cum: np.ndarray
    eve_cum: np.ndarray | None
    d0_probes: tuple[np.ndarray | None, ...]


def _cumulative(probabilities) -> np.ndarray:
    """Running sums, set to exactly 1 from the last possible outcome on.

    Rounding leaves the sums a few ulps short of 1; without the guard, a
    trailing zero-probability outcome would keep that sliver of [0, 1).
    """
    p = np.asarray(probabilities, dtype=float)
    cum = np.cumsum(p)
    cum[np.flatnonzero(p)[-1]:] = 1.0
    return cum


@functools.lru_cache(maxsize=64)
def sampling_tables(upsilon: float | None) -> SamplingTables:
    """Build (once per angle) the tables every sampled round is drawn from."""
    povm = build_povm(upsilon) if upsilon is not None and upsilon > 0.0 else None
    outcome_cum = np.empty((4, len(OUTCOME_ORDER)))
    eve_cum = np.zeros((4, len(EVE_OUTCOME_ORDER))) if povm is not None else None
    d0_probes = []
    for pair in range(4):
        dist = terminal_distribution(
            CHOICES_BY_CODE[pair >> 1], CHOICES_BY_CODE[pair & 1], upsilon
        )
        outcome_cum[pair] = _cumulative([dist.probability(o) for o in OUTCOME_ORDER])
        probe = dist.probe(Outcome.D0)
        d0_probes.append(probe)
        if povm is not None and probe is not None:
            eve_cum[pair] = _cumulative(povm.outcome_probabilities(probe))
    for array in (outcome_cum, eve_cum, *d0_probes):
        if array is not None:
            array.flags.writeable = False  # shared by every caller through the cache
    return SamplingTables(
        outcome_cum=outcome_cum,
        eve_cum=eve_cum,
        d0_probes=tuple(d0_probes),
    )


def _sample_codes(
    tables: SamplingTables, pair: np.ndarray, u_outcome: np.ndarray, u_eve: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map pair codes and two uniforms per round to (outcome, Eve) codes.

    Each code counts the thresholds of its row at or below the uniform,
    which is the inverse-CDF draw.  Eve measures only D0 rounds under an
    attack; every other round gets -1.
    """
    outcome = (tables.outcome_cum[pair] <= u_outcome[:, None]).sum(1, dtype=np.uint8)
    eve = np.full(len(pair), _EVE_ABSENT, dtype=np.int8)
    if tables.eve_cum is not None:
        d0 = np.flatnonzero(outcome == _D0)
        eve[d0] = (tables.eve_cum[pair[d0]] <= u_eve[d0, None]).sum(1, dtype=np.int8)
    return outcome, eve


#: Lowest and highest code of each log column; rows are rendered by code.
_COLUMN_CODES = {
    "alice": (0, 1),
    "bob": (0, 1),
    "outcome": (0, len(OUTCOME_ORDER) - 1),
    "eve_result": (_EVE_ABSENT, len(EVE_OUTCOME_ORDER) - 1),
    "disclosed": (0, 1),
}


@dataclass
class SessionLog:
    """Columnar record of a whole session plus per-cell counters.

    Columns are rounds in order: choice codes (0 = Absorb, 1 = Reflect),
    outcome codes (index into ``OUTCOME_ORDER``), Eve's measurement code
    (-1 when absent) and the disclosure mask.  ``RoundRecord`` views are
    materialized on demand so million-round sessions stay cheap.
    """

    config: SessionConfig
    alice: np.ndarray
    bob: np.ndarray
    outcome: np.ndarray
    eve_result: np.ndarray
    disclosed: np.ndarray

    def __post_init__(self) -> None:
        n = self.config.n_rounds
        for name, (lowest, highest) in _COLUMN_CODES.items():
            col = getattr(self, name)
            if len(col) != n:
                raise ValueError(f"column {name} has {len(col)} rows, config says {n}")
            if col.min() < lowest or col.max() > highest:
                raise ValueError(f"column {name} holds codes outside [{lowest}, {highest}]")

    def __len__(self) -> int:
        return self.config.n_rounds

    @property
    def sifted(self) -> np.ndarray:
        """Mask of key-candidate rounds (exactly the D0 outcomes)."""
        return self.outcome == _D0

    @property
    def counters(self) -> dict[tuple[str, str, str], int]:
        """Counts per (alice choice, bob choice, outcome) cell, all 16 cells."""
        flat = np.bincount(
            self.alice.astype(np.int64) * 8 + self.bob.astype(np.int64) * 4
            + self.outcome.astype(np.int64),
            minlength=16,
        )
        out: dict[tuple[str, str, str], int] = {}
        for a in range(2):
            for b in range(2):
                for o, outcome in enumerate(OUTCOME_ORDER):
                    key = (CHOICES_BY_CODE[a].value, CHOICES_BY_CODE[b].value, outcome.value)
                    out[key] = int(flat[a * 8 + b * 4 + o])
        return out

    def round(self, i: int) -> RoundRecord:
        """Materialize the full record of round ``i``."""
        outcome = OUTCOME_ORDER[self.outcome[i]]
        announced = Announcement.D0 if outcome is Outcome.D0 else Announcement.NOT_D0
        eve_probe = None
        eve_result = None
        if self.config.attack_active and outcome is Outcome.D0:
            pair = int(self.alice[i]) * 2 + int(self.bob[i])
            eve_probe = sampling_tables(self.config.upsilon).d0_probes[pair]
            code = int(self.eve_result[i])
            eve_result = EVE_OUTCOME_ORDER[code] if code >= 0 else None
        return RoundRecord(
            round_id=i,
            alice_choice=CHOICES_BY_CODE[self.alice[i]],
            bob_choice=CHOICES_BY_CODE[self.bob[i]],
            outcome=outcome,
            announced=announced,
            eve_probe=eve_probe,
            eve_result=eve_result,
            sifted=outcome is Outcome.D0,
            disclosed_for_check=bool(self.disclosed[i]),
        )

    def iter_rounds(self):
        for i in range(len(self)):
            yield self.round(i)

    def _row_parts(self, fmt: str) -> list[str]:
        """Head, round id and tail of every round's row in ``fmt``, in round order."""
        heads, tails = _row_templates(self.config.upsilon, fmt)
        codes = (
            (((self.alice.astype(np.intp) * 2 + self.bob) * 4 + self.outcome) * 4
             + self.eve_result + 1) * 2 + self.disclosed
        )
        n = len(codes)
        parts = [""] * (3 * n)
        parts[0::3] = heads[codes].tolist()
        parts[1::3] = map(str, range(n))
        parts[2::3] = tails[codes].tolist()
        return parts

    def to_json(self, include_rounds: bool = False) -> str:
        """Serialize to a canonical JSON document (stable bytes per config)."""
        doc: dict = {
            "config": self.config.as_dict(),
            "counters": {",".join(k): v for k, v in self.counters.items()},
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        if not include_rounds:
            return text + "\n"
        # "rounds" sorts after "config" and "counters", so the rows close the document.
        parts = self._row_parts("json")
        parts[0] = text[:-1] + ',"rounds":[' + parts[0][1:]  # no comma before the first row
        parts.append("]}\n")
        return "".join(parts)

    def to_csv(self) -> str:
        """Per-round CSV with one row per round."""
        parts = self._row_parts("csv")
        parts.insert(0, "round_id,alice,bob,outcome,announced,eve_result,sifted,disclosed\n")
        return "".join(parts)


#: Distinct rows up to the round id; round i has row code
#: ((((alice * 2 + bob) * 4 + outcome) * 4 + eve + 1) * 2 + disclosed).
_ROW_CODES = 128
#: Stands in for the round id while a template row is rendered.
_ROUND_ID_MARK = 2**64


def _json_row(row: dict) -> str:
    """An element of the rounds array, after the comma that separates it from the last."""
    return "," + json.dumps(row, sort_keys=True, separators=(",", ":"))


def _csv_row(row: dict) -> str:
    """A CSV line of the row's values: None is empty and booleans are lower case."""
    cells = ("" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
             for v in row.values())
    return ",".join(cells) + "\n"


_ROW_FORMATS = {"json": _json_row, "csv": _csv_row}


@functools.lru_cache(maxsize=64)
def _row_templates(upsilon: float | None, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Text before and after the round id of each row code in ``fmt``, by row code.

    Each code's row is rendered once, from the record ``SessionLog.round``
    gives for it, with a marker in place of the round id.
    """
    code = np.arange(_ROW_CODES)
    log = SessionLog(
        config=SessionConfig(n_rounds=_ROW_CODES, upsilon=upsilon),
        alice=code >> 6,
        bob=code >> 5 & 1,
        outcome=code >> 3 & 3,
        eve_result=(code >> 1 & 3) - 1,
        disclosed=(code & 1).astype(bool),
    )
    render = _ROW_FORMATS[fmt]
    split = [
        render({
            "round_id": _ROUND_ID_MARK,
            "alice": rec.alice_choice.value,
            "bob": rec.bob_choice.value,
            "outcome": rec.outcome.value,
            "announced": rec.announced.value,
            "eve_result": rec.eve_result.value if rec.eve_result else None,
            "sifted": rec.sifted,
            "disclosed": rec.disclosed_for_check,
        }).partition(str(_ROUND_ID_MARK))
        for rec in log.iter_rounds()
    ]
    heads = np.array([head for head, _, _ in split], dtype=object)
    tails = np.array([tail for _, _, tail in split], dtype=object)
    heads.flags.writeable = tails.flags.writeable = False  # shared through the cache
    return heads, tails


def _disclosure_mask(config: SessionConfig) -> np.ndarray:
    """Check-subset mask drawn from the config's (seed, disclose-stream) generator."""
    uniforms = philox_stream(config.seed, DISCLOSE_STREAM).random(config.n_rounds)
    return uniforms < config.check_fraction


def run_session(config: SessionConfig, workers: int = 1) -> SessionLog:
    """Simulate ``config.n_rounds`` independent rounds.

    The log is a pure function of the config: per-round uniforms come from
    the (seed, round-stream) generator and the disclosure mask from the
    (seed, disclose-stream) generator.  Blocks of ``SAMPLING_BLOCK`` rounds
    are mapped on a pool of ``workers`` threads, so any positive worker
    count produces identical results.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    n = config.n_rounds
    tables = sampling_tables(config.upsilon)
    u = philox_stream(config.seed, ROUND_STREAM).random((n, 4))
    alice = np.empty(n, dtype=np.uint8)
    bob = np.empty(n, dtype=np.uint8)
    outcome = np.empty(n, dtype=np.uint8)
    eve = np.empty(n, dtype=np.int8)

    def map_block(lo: int) -> None:
        block = slice(lo, min(lo + SAMPLING_BLOCK, n))
        alice[block] = u[block, 0] >= 0.5
        bob[block] = u[block, 1] >= 0.5
        outcome[block], eve[block] = _sample_codes(
            tables, alice[block] * 2 + bob[block], u[block, 2], u[block, 3]
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(map_block, range(0, n, SAMPLING_BLOCK)))
    del u  # release the uniforms before the disclosure draw allocates its own
    return SessionLog(
        config=config,
        alice=alice,
        bob=bob,
        outcome=outcome,
        eve_result=eve,
        disclosed=_disclosure_mask(config),
    )


def disclose_check_subset(log: SessionLog, fraction: float) -> SessionLog:
    """Return a copy of the log with the check subset of ``fraction``.

    The mask is the one a fresh session with that check fraction draws, so
    the copy equals ``run_session`` of its own config.
    """
    config = dataclasses.replace(log.config, check_fraction=fraction)
    return SessionLog(
        config=config,
        alice=log.alice,
        bob=log.bob,
        outcome=log.outcome,
        eve_result=log.eve_result,
        disclosed=_disclosure_mask(config),
    )


@dataclass
class SiftedKey:
    """Raw key bits from announced D0 rounds not disclosed for checking.

    ``eve_guesses`` holds Eve's bit guess per position (-1 when she has
    none: inconclusive measurement or no attack).
    """

    alice_bits: np.ndarray
    bob_bits: np.ndarray
    eve_guesses: np.ndarray

    def __len__(self) -> int:
        return len(self.alice_bits)

    def mismatch_rate(self) -> float:
        """Fraction of positions where Alice's and Bob's bits disagree (QBER)."""
        if len(self) == 0:
            raise ValueError("empty sifted key")
        return float(np.mean(self.alice_bits != self.bob_bits))

    def key_bit_mask(self) -> np.ndarray:
        """Positions carrying a well-defined shared bit (bits agree).

        Mismatched positions come from both-reflect D0 rounds, where no
        shared bit exists and Eve's stored probe lies outside the two-state
        ensemble; discrimination statistics are defined on this mask.
        """
        return self.alice_bits == self.bob_bits

    def eve_conclusive_rate(self) -> float:
        """Rate of conclusive Eve results over shared-bit positions."""
        mask = self.key_bit_mask()
        if not mask.any():
            raise ValueError("no shared-bit positions in the sifted key")
        return float(np.mean(self.eve_guesses[mask] >= 0))

    def eve_guess_errors(self) -> int:
        """Conclusive guesses on shared-bit positions that differ from the bit.

        Unambiguous discrimination makes this exactly zero.
        """
        mask = self.key_bit_mask() & (self.eve_guesses >= 0)
        return int(np.sum(self.eve_guesses[mask] != self.alice_bits[mask]))


def sift(log: SessionLog) -> SiftedKey:
    """Extract the raw key: D0 rounds that were not disclosed for checking.

    Alice's bit is 1 when she reflected; Bob's bit is 1 when he absorbed.
    D0 then implies equal bits whenever the choices were anti-correlated.
    """
    keep = log.sifted & ~log.disclosed
    alice_bits = log.alice[keep].astype(np.uint8)  # Reflect code is already bit 1
    bob_bits = (1 - log.bob[keep]).astype(np.uint8)
    codes = log.eve_result[keep]
    guesses = np.full(len(codes), -1, dtype=np.int8)
    guesses[codes == 0] = 0  # Plus: photon in the external arm, Alice absorbed
    guesses[codes == 1] = 1  # Minus: photon in the internal arm, Alice reflected
    return SiftedKey(alice_bits=alice_bits, bob_bits=bob_bits, eve_guesses=guesses)
