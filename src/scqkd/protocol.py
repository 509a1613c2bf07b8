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

Every round is one of 128 row codes, and a code is its fields' flat index
in ``HISTOGRAM_SHAPE``; ``_ROWS`` holds each code's fields.  Every reported
number is a function of the session's histogram of row codes, and every
per-round view a function of a first round id and codes: ``_rows`` renders
the export's rows, ``_key`` the key, and ``round(i)`` reads ``_records()``.
A log's codes come from ``_code_pieces`` alone.  A ``SessionLog`` holds its
histogram alone until a per-round column is first read; then it holds one
``_ROWS`` record per round, whose fields are the columns.  Every session
runs chunk by chunk on one thread pool, ``_map_chunks``, and
``_draw_chunk`` draws a chunk's pair codes and key words.

Sessions that differ only in upsilon share every draw, so
``_sweep_histograms``, and so ``run_session``, bins each chunk once
against a grid's merged thresholds (``_Bins``) and reads every angle's
histogram out of the summed bin counts.  ``_sweep_plan`` is the one cache
of the sampler's law: it merges each angle's ``_thresholds`` as it is
built.  Per-round row codes are read from the same bins of each round's
own angle: ``_joint`` gives the round's bin, whether it is counted or
mapped, and ``_bin_rows`` is the one rule for which row a bin is in.
Every JSON and CSV artifact of the package is encoded here, by
``_canonical`` and ``_csv_line``.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
import json
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import OUTCOME_ORDER, Choice, Outcome, build_povm, terminal_distribution
from .eve import EVE_OUTCOME_ORDER, EveOutcome
from .randomness import (DISCLOSE_STREAM, ROUND_STREAM, _UINT64_MAX, _is_integer, _philox_words,
                         philox_stream)

#: Choice encoding used by the columnar log (index into this tuple).
CHOICES_BY_CODE = (Choice.ABSORB, Choice.REFLECT)
_D0 = OUTCOME_ORDER.index(Outcome.D0)

#: A word's key k is its top 53 bits and its uniform is k * 2**-53.
_UNIFORM_BITS = 53
_KEY_SHIFT = np.uint64(64 - _UNIFORM_BITS)

#: Rounds per chunk of the session's thread pool.  Results never depend on it.
SAMPLING_BLOCK = 2**16
#: Rows per piece of a per-round export: about 0.6 MB of JSON or 0.2 MB of CSV.
#: Writing 2*10**5 JSON rows took 48-51 ms at 2**10 to 2**14 rows a piece and
#: 68 ms at 2**16 (2 vCPUs, median of 21), so smaller pieces cost no time.
_PIECE_ROWS = 2**12

#: Axes of the row-code histogram: alice, bob, outcome, Eve's code + 1, disclosed.
HISTOGRAM_SHAPE = (2, 2, len(OUTCOME_ORDER), len(EVE_OUTCOME_ORDER) + 1, 2)
#: Distinct rows up to the round id.
_ROW_CODES = math.prod(HISTOGRAM_SHAPE)
#: Each row code's fields, indexed by the code, with a log's column names and
#: dtypes: choice codes (0 = Absorb, 1 = Reflect), the outcome code (index
#: into ``OUTCOME_ORDER``), Eve's measurement code (-1 when absent) and the
#: disclosure flag.  A log's record holds one of these per round.
_ROWS = np.array([*zip(*np.unravel_index(range(_ROW_CODES), HISTOGRAM_SHAPE))], dtype=[
    ("alice", np.uint8), ("bob", np.uint8), ("outcome", np.uint8), ("eve_result", np.int8),
    ("disclosed", bool)])
_ROWS["eve_result"] -= 1  # Eve's axis holds her code + 1
_ROWS.flags.writeable = False  # shared by every log


class Announcement(enum.Enum):
    """Alice's public per-round announcement: D0, or anything else."""

    D0 = "D0"
    NOT_D0 = "NotD0"


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
        if not _is_integer(self.seed) or not 0 <= self.seed <= _UINT64_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not _is_real(self.check_fraction) or not 0.0 <= self.check_fraction <= 1.0:
            raise ValueError(f"check_fraction must lie in [0, 1], got {self.check_fraction!r}")
        # Stored as Python numbers so that equal configs serialize to equal bytes;
        # adding 0.0 turns -0.0, which equals 0.0, into 0.0.
        object.__setattr__(self, "n_rounds", int(self.n_rounds))
        object.__setattr__(self, "seed", int(self.seed))
        if self.upsilon is not None:
            object.__setattr__(self, "upsilon", float(self.upsilon) + 0.0)
        object.__setattr__(self, "check_fraction", float(self.check_fraction) + 0.0)


@dataclass(frozen=True)
class RoundRecord:
    """Everything known about one round, including Eve's private data."""

    round_id: int
    alice_choice: Choice
    bob_choice: Choice
    outcome: Outcome
    announced: Announcement
    eve_result: EveOutcome | None
    sifted: bool
    disclosed_for_check: bool


#: A bucket is a pair code and the top 10 bits of a key, which are its word's
#: top 10: 4 * 1024 one-byte entries per table, each covering 2**43 keys.  At
#: 12 bits a 33-angle grid's tables took 1.1 MB, not 0.26, and mapped no faster.
_BUCKET_BITS = 10
_BUCKET_KEYS = 2**(_UNIFORM_BITS - _BUCKET_BITS)
_BUCKET_SHIFT = np.uint64(64 - _BUCKET_BITS)
#: A bucket table's entry for a bucket whose keys do not all share one count.
_STRADDLES = 255


def _cumulative(probabilities) -> np.ndarray:
    """Running sums, set to exactly 1 from the last possible outcome on.

    Rounding leaves the sums a few ulps short of 1; without the guard, a
    trailing zero-probability outcome would keep that sliver of [0, 1).
    """
    p = np.asarray(probabilities, dtype=float)
    cum = np.cumsum(p)
    cum[np.flatnonzero(p)[-1]:] = 1.0
    return cum


def _thresholds(upsilon: float | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The integer law every round at one probe angle is drawn from: (outcome, Eve) thresholds.

    Rows are indexed by the pair code ``2 * alice + bob`` in
    ``CHOICES_BY_CODE`` codes.  Column j of the outcome table's row is
    ceil(c * 2**53), where c is the probability of outcomes 0 to j of
    ``OUTCOME_ORDER``; the Eve table's row is the same over
    ``EVE_OUTCOME_ORDER`` for Eve's POVM on that pair's D0 probe (zeros when
    D0 is impossible; the table is None without an attack).  A uniform
    k * 2**-53 is at or above c exactly when k is at or above ceil(c * 2**53),
    so a round's code, the number of its row's thresholds at or below k, is
    j with probability (T[j] - T[j - 1]) * 2**-53, where T[-1] = 0.
    ``_sweep_plan`` reads them once per angle as it builds its bins.
    """
    povm = build_povm(upsilon) if upsilon is not None and upsilon > 0.0 else None
    outcome_cdf = np.empty((4, len(OUTCOME_ORDER)))
    eve_cdf = np.zeros((4, len(EVE_OUTCOME_ORDER))) if povm is not None else None
    for pair in range(4):
        dist = terminal_distribution(
            CHOICES_BY_CODE[pair >> 1], CHOICES_BY_CODE[pair & 1], upsilon
        )
        outcome_cdf[pair] = _cumulative([dist.probability(o) for o in OUTCOME_ORDER])
        probe = dist.probe(Outcome.D0)
        if povm is not None and probe is not None:
            eve_cdf[pair] = _cumulative(povm.outcome_probabilities(probe))
    # Exact: scaling by 2**53 and taking the ceiling do not round.
    return tuple(None if cdf is None else np.ceil(cdf * 2.0**_UNIFORM_BITS).astype(np.uint64)
                 for cdf in (outcome_cdf, eve_cdf))


def _bucket_table(thresholds: np.ndarray) -> np.ndarray:
    """Each bucket's count of its row's thresholds, or ``_STRADDLES``: a uint8 table.

    Entry ``pair << 10 | k >> 43`` covers the 2**43 keys k of one row that
    share their top 10 bits.  A count only grows with k, so when the
    bucket's first and last keys have the same count, every key in it has
    that count; otherwise the entry is ``_STRADDLES``.  Each threshold
    splits at most one bucket of its row.
    """
    first = np.arange(0, 2**_UNIFORM_BITS, _BUCKET_KEYS, dtype=np.uint64)
    last = first + np.uint64(_BUCKET_KEYS - 1)
    table = np.empty((len(thresholds), len(first)), dtype=np.uint8)
    for row, ascending in zip(table, np.sort(thresholds, axis=1)):
        at_first, at_last = (np.searchsorted(ascending, keys, side="right")
                             for keys in (first, last))
        row[:] = np.where(at_first == at_last, at_first, _STRADDLES)
    return table.ravel()


def _look_up(buckets: np.ndarray, thresholds: np.ndarray, pair: np.ndarray,
             words: np.ndarray) -> np.ndarray:
    """Per round, how many thresholds of row ``thresholds[pair]`` lie at or below its key.

    A round's uint16 bucket index is ``pair << 10`` or'd with its word's top
    10 bits, and the bucket table gives the count; only the rounds in
    straddling buckets, at most one bucket per threshold, are counted by
    ``_count_thresholds``.  A short chunk often has none, and an empty
    compare still costs microseconds, so it is skipped.
    """
    # Shifted as uint64 and cast on the way out, with no uint64 temporary.
    index = np.right_shift(words, _BUCKET_SHIFT, casting="unsafe",
                           out=np.empty(len(words), np.uint16))
    index |= np.left_shift(pair, _BUCKET_BITS, dtype=np.uint16)
    count = buckets.take(index)
    straddling = np.flatnonzero(count == _STRADDLES)
    if len(straddling):
        count[straddling] = _count_thresholds(
            thresholds, pair[straddling], words[straddling] >> _KEY_SHIFT
        )
    return count


def _count_thresholds(thresholds: np.ndarray, pair: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per round, how many integer thresholds of row ``thresholds[pair]`` lie at or below ``k``.

    Each round gathers its own row and compares it with its key.  Only the
    rounds of straddling buckets come here: 0.1% of a one-angle session.
    """
    return (thresholds[pair] <= k[:, None]).sum(axis=1, dtype=np.uint8)


class SessionLog:
    """A whole session: its config and its histogram of row codes or its rounds.

    A log comes from ``run_session`` and holds only its read-only
    histogram.  Its bulk views, ``sift`` and the per-round export, are
    ``_key`` and ``_rows`` of each piece of codes from ``_code_pieces``; only
    reading a column, directly or through ``round(i)``, decodes the rounds
    into the log's record, ``_rounds``: one ``_ROWS`` entry per round.  The
    five columns ``alice``, ``bob``, ``outcome``, ``eve_result`` and
    ``disclosed`` are that record's fields, writable views of it.  Once a
    log has a record, every view reads the row codes it encodes, so an edit
    made in place shows in every view, and a field edited outside its axis
    of ``HISTOGRAM_SHAPE`` raises ``ValueError`` there.  No view reads the
    config's angle: a row code means the same in every log.  No attribute
    can be reassigned, and ``run_session`` is the only constructor, so every
    log follows from its config and the edits made to it.
    """

    alice, bob, outcome, eve_result, disclosed = (
        property(lambda log, name=name: log._rounds[name]) for name in _ROWS.dtype.names)

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("a SessionLog has no public constructor: run_session makes one")

    @classmethod
    def _of_histogram(cls, config: SessionConfig, histogram, workers: int) -> SessionLog:
        """A log that holds only ``histogram``: 128 non-negative counts that sum to ``n_rounds``."""
        histogram = np.array(histogram, dtype=np.int64)
        if histogram.shape != (_ROW_CODES,) or histogram.min() < 0:
            raise ValueError(f"histogram must hold {_ROW_CODES} non-negative counts")
        if histogram.sum() != config.n_rounds:
            raise ValueError(
                f"histogram counts {histogram.sum()} rounds, config says {config.n_rounds}"
            )
        histogram.flags.writeable = False
        log = cls.__new__(cls)
        log.__dict__.update(config=config, _histogram=histogram, _workers=workers)
        return log

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a SessionLog's attributes are fixed")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a SessionLog's attributes are fixed")

    @functools.cached_property
    def _rounds(self) -> np.ndarray:
        """The log's record, each round's ``_ROWS`` entry: the codes of ``_code_pieces``, decoded."""
        rounds = np.empty(len(self), _ROWS.dtype)
        for lo, codes in self._code_pieces():
            # In the default mode numpy buffers ``out``: 2.3 ms per 2**16 rounds, not 0.26.
            _ROWS.take(codes, out=rounds[lo:lo + len(codes)], mode="clip")
        return rounds

    def __len__(self) -> int:
        return self.config.n_rounds

    @property
    def histogram(self) -> np.ndarray:
        """Rounds per row code: the log's own, or counted from its record once it has one."""
        if "_rounds" not in vars(self):
            return self._histogram
        return sum(np.bincount(codes, minlength=_ROW_CODES) for _, codes in self._code_pieces())

    @property
    def counters(self) -> dict[tuple[str, str, str], int]:
        """Counts per (alice choice, bob choice, outcome) cell, all 16 cells."""
        cells = itertools.product(CHOICES_BY_CODE, CHOICES_BY_CODE, OUTCOME_ORDER)
        counts = self.histogram.reshape(HISTOGRAM_SHAPE).sum(axis=(3, 4)).ravel().tolist()
        return {(a.value, b.value, o.value): n for (a, b, o), n in zip(cells, counts)}

    def round(self, i: int) -> RoundRecord:
        """Materialize the full record of round ``i``, an integer in ``[0, len(self))``."""
        if not _is_integer(i):
            raise TypeError(f"round index must be an integer, got {i!r}")
        if not 0 <= i < len(self):
            raise IndexError(f"round {i} is outside [0, {len(self)})")
        (code,) = _codes(self._rounds[i:i + 1])
        return RoundRecord(int(i), *_records()[code])

    def _code_pieces(self) -> Iterator[tuple[int, np.ndarray]]:
        """(first round id, row codes) per ``_PIECE_ROWS`` rounds: the one source of a log's codes.

        Mapped again, or encoded from the log's record a piece at a time once it has one.
        """
        if "_rounds" in vars(self):
            for lo in range(0, len(self), _PIECE_ROWS):
                yield lo, _codes(self._rounds[lo:lo + _PIECE_ROWS])
            return
        for lo, codes in _map_chunks(self.config, self._workers, _code_task(self.config)):
            for start in range(0, len(codes), _PIECE_ROWS):
                yield lo + start, codes[start:start + _PIECE_ROWS]

    def _document(self, fmt: str) -> Iterator[str]:
        """The per-round document in ``fmt``: a head, ``_rows`` of each code piece, an end.

        ``to_json(include_rounds=True)`` and ``to_csv()`` join it; the CLI
        writes it piece by piece.
        """
        if fmt == "json":
            # "rounds" sorts after "config" and "counters", so the rows close the document.
            yield self.to_json()[:-2] + ',"rounds":['
        else:
            yield _csv_line(_row(RoundRecord(0, *_records()[0])).keys())
        for lo, codes in self._code_pieces():
            yield _rows(fmt, lo, codes)
        if fmt == "json":
            yield "]}\n"

    def to_json(self, include_rounds: bool = False) -> str:
        """Config, counters and, if asked, rounds as canonical JSON (stable bytes per config)."""
        if include_rounds:
            return "".join(self._document("json"))
        doc = {
            "config": asdict(self.config),
            "counters": {",".join(k): v for k, v in self.counters.items()},
        }
        return _canonical(doc) + "\n"

    def to_csv(self) -> str:
        """Per-round CSV with one row per round."""
        return "".join(self._document("csv"))


def _canonical(value) -> str:
    """``value`` as canonical JSON, with no final newline: every JSON artifact's encoder."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _csv_cell(value) -> str:
    """None is empty, a bool is true or false and a float has 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):  # before the generic case: str(True) is "True"
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _csv_line(values) -> str:
    """``values`` as one CSV line: every CSV artifact's encoder."""
    return ",".join(map(_csv_cell, values)) + "\n"


#: Stands in for the round id while a template row is rendered.
_ROUND_ID_MARK = 2**64

#: Renders a row dict in each format; a JSON row starts with the comma that
#: separates it from the one before.
_ROW_FORMATS = {
    "json": lambda row: "," + _canonical(row),
    "csv": lambda row: _csv_line(row.values()),
}


def _row(rec: RoundRecord) -> dict:
    """A round's row of the per-round export; its keys, in order, are the CSV header."""
    return {"round_id": rec.round_id, "alice": rec.alice_choice.value, "bob": rec.bob_choice.value,
            "outcome": rec.outcome.value, "announced": rec.announced.value,
            "eve_result": rec.eve_result.value if rec.eve_result else None,
            "sifted": rec.sifted, "disclosed": rec.disclosed_for_check}


@functools.lru_cache(maxsize=2)
def _row_templates(fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Heads and tails of the rows in ``fmt``: ``heads[code]`` and ``tails[digit, code]``.

    A row is its code's head, its round id and its code's tail; the tail
    table starts each tail with the round id's last digit.  Each code's row
    is rendered once, from its record in ``_records()``, with a marker for
    its round id, so a code renders alike in every log.
    """
    render = _ROW_FORMATS[fmt]
    split = [render(_row(RoundRecord(_ROUND_ID_MARK, *fields))).partition(str(_ROUND_ID_MARK))
             for fields in _records()]
    heads = np.array([head for head, _, _ in split], dtype=object)
    tails = np.array([[str(digit) + tail for _, _, tail in split] for digit in range(10)],
                     dtype=object)
    heads.flags.writeable = tails.flags.writeable = False  # shared through the cache
    return heads, tails


def _rows(fmt: str, lo: int, codes: np.ndarray) -> str:
    """The ``fmt`` rows of the rounds from id ``lo`` on, whose row codes are ``codes`` (not empty).

    A row is its code's head, its round id and its code's tail.  Round id i
    is the decade prefix str(i // 10), made once per ten rounds and empty
    below 10, then the last digit, which the tail table folds into the tail.
    """
    heads, tails = _row_templates(fmt)
    decade, digit = np.divmod(np.arange(lo, lo + len(codes)), 10)
    first = lo // 10
    prefixes = np.array(list(map(str, range(first, decade[-1] + 1))), dtype=object)
    if first == 0:
        prefixes[0] = ""
    parts = [""] * (3 * len(codes))
    parts[0::3] = heads[codes].tolist()
    parts[1::3] = prefixes.take(decade - first).tolist()
    parts[2::3] = tails[digit, codes].tolist()
    if lo == 0 and fmt == "json":
        parts[0] = parts[0][1:]  # no comma before a document's first row
    return "".join(parts)


def _codes(rounds: np.ndarray) -> np.ndarray:
    """Row codes of records of ``_ROWS``'s dtype: their fields' flat index in ``HISTOGRAM_SHAPE``.

    A field outside its axis, as an edit in place can leave it, raises
    ``ValueError`` instead of being counted as another row.
    """
    return np.ravel_multi_index((rounds["alice"], rounds["bob"], rounds["outcome"],
                                 rounds["eve_result"] + 1, rounds["disclosed"]), HISTOGRAM_SHAPE)


#: Per row code: a key round (D0 and not disclosed), Bob's bit and Eve's
#: guess of the bit, -1 when she has none.  Alice's bit is her choice code.
_KEY_ROW = (_ROWS["outcome"] == _D0) & ~_ROWS["disclosed"]
_BOB_BIT = 1 - _ROWS["bob"]
# Plus (code 0) puts the photon in the external arm: Alice absorbed, bit 0.
# Minus (code 1) puts it in the internal arm: Alice reflected, bit 1.  The
# sampler writes Eve's code only on the D0 rows of an attacked session.
_EVE_GUESS = np.where(_ROWS["eve_result"] <= 1, _ROWS["eve_result"], -1).astype(np.int8)


@functools.lru_cache(maxsize=1)
def _records() -> tuple[tuple, ...]:
    """Each row code's ``RoundRecord`` fields after the round id, indexed by the code.

    One tuple per entry of ``_ROWS``; ``RoundRecord(i, *fields)`` is a
    round's record.  Eve's result shows exactly when the row holds her code
    on a D0 outcome, which the sampler writes only in an attacked session.
    """
    records = []
    for alice, bob, outcome, eve, disclosed in _ROWS.tolist():
        d0 = outcome == _D0
        records.append((CHOICES_BY_CODE[alice], CHOICES_BY_CODE[bob], OUTCOME_ORDER[outcome],
                        Announcement.D0 if d0 else Announcement.NOT_D0,
                        EVE_OUTCOME_ORDER[eve] if d0 and eve >= 0 else None, d0,
                        disclosed))
    return tuple(records)


def _draw_chunk(seed: int, lo: int, n: int) -> tuple:
    """Rounds ``lo`` to ``lo + n`` for ``_joint``: pair codes, outcome words and Eve words.

    Round i's four words are Philox counter step i of the round stream,
    so the chunk draws them at its own counter step ``lo``.  A choice is
    Reflect when its uniform is at least 0.5: its word's top bit is set.
    Words 2 and 3, the outcome and Eve keys, stay strided views of the
    chunk's word array; only the few rounds in straddling buckets ever
    have their keys shifted out.
    """
    words = _philox_words(seed, ROUND_STREAM, lo, n)
    pair = (words[:, 0] >= 2**63).view(np.uint8) * 2
    pair += words[:, 1] >= 2**63
    return pair, words[:, 2], words[:, 3]


#: A key above every key: the last threshold of every merged row.
_TOP = np.uint64(2**_UNIFORM_BITS)
#: Cells of one batch's joint bin count, whose index is uint16.
_JOINT_CELLS = 2**16


@dataclass(frozen=True)
class _Bins:
    """Angles counted together, and each bin's code at each of them.

    Per pair code, ``outcome_thresholds`` is the sorted union of the angles'
    outcome thresholds (``_thresholds``) and 2**53, padded with 2**53,
    ``eve_thresholds`` the same of their Eve tables, and the bucket tables
    are ``_bucket_table`` of each; every array is read-only.  A round's bin
    counts its row's merged thresholds at or below its key.  No angle's
    threshold lies inside a bin, so every key of a bin has the code of its
    least key, held per angle, pair and bin: ``outcome_codes``, and
    ``eve_codes``, Eve's code + 1 or 0 at an angle without an attack.
    """

    outcome_thresholds: np.ndarray
    eve_thresholds: np.ndarray
    outcome_buckets: np.ndarray
    eve_buckets: np.ndarray
    outcome_codes: np.ndarray
    eve_codes: np.ndarray
    shape: tuple[int, int, int, int]


def _merge(per_angle: list[tuple]) -> list[np.ndarray]:
    """The merged outcome and Eve thresholds of the ``_Bins`` of these angles' ``_thresholds``."""
    merged = []
    for tables in ([outcome for outcome, _ in per_angle],
                   [eve for _, eve in per_angle if eve is not None]):
        rows = [sorted(set(row)) for row in np.hstack([*tables, np.full((4, 1), _TOP)]).tolist()]
        width = max(map(len, rows))
        merged.append(np.array([row + [_TOP] * (width - len(row)) for row in rows], np.uint64))
    return merged


def _least_codes(own: np.ndarray, least: np.ndarray) -> np.ndarray:
    """Per pair and bin, how many of ``own``'s thresholds but 2**53 lie at or below ``least``."""
    return (own[:, None, :-1] <= least[..., None]).sum(-1, dtype=np.uint8)


def _bins(per_angle: list[tuple]) -> _Bins:
    outcome, eve = _merge(per_angle)
    # A bin's least key: 0, or the merged threshold just below it.
    least_outcome, least_eve = (np.pad(row[:, :-1], ((0, 0), (1, 0))) for row in (outcome, eve))
    outcome_codes = np.array([_least_codes(own, least_outcome) for own, _ in per_angle])
    eve_codes = np.array([np.zeros(eve.shape, np.uint8) if own is None
                          else _least_codes(own, least_eve) + 1 for _, own in per_angle])
    bins = _Bins(outcome, eve, _bucket_table(outcome), _bucket_table(eve), outcome_codes,
                 eve_codes, (2, 4, outcome.shape[1], eve.shape[1]))
    for array in vars(bins).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False  # shared by every caller through the cache
    return bins


@functools.lru_cache(maxsize=16)
def _sweep_plan(upsilons: tuple) -> tuple[_Bins, ...]:
    """(Once per grid) the grid's angles in batches, each as long as its bins fit their dtypes.

    Each angle's ``_thresholds`` live only until its batch is merged.  No
    key reaches a merged row's last threshold, 2**53, so a row of at most
    ``_STRADDLES`` thresholds bins below that sentinel.  33 angles are one batch.
    """
    batches = [[]]
    for tables in map(_thresholds, upsilons):
        outcome, eve = (t.shape[1] for t in _merge(batches[-1] + [tables]))
        if max(outcome, eve) > _STRADDLES or 8 * outcome * eve > _JOINT_CELLS:
            batches.append([])
        batches[-1].append(tables)
    return tuple(map(_bins, batches))


def _joint(bins: _Bins, disclosed: np.ndarray, draws: tuple) -> np.ndarray:
    """Each round's uint16 joint bin (disclosed, pair, outcome bin, Eve bin) in ``bins``.

    A session is counted by these bins, and a per-round map reads each
    round's row by its bin.
    """
    pair, w_outcome, w_eve = draws
    joint = np.multiply(disclosed.view(np.uint8) << 2 | pair, bins.shape[2], dtype=np.uint16)
    joint += _look_up(bins.outcome_buckets, bins.outcome_thresholds, pair, w_outcome)
    joint *= bins.shape[3]
    joint += _look_up(bins.eve_buckets, bins.eve_thresholds, pair, w_eve)
    return joint


def _bin_chunk(plan: tuple[_Bins, ...], seed: int, lo: int,
               disclosed: np.ndarray) -> list[np.ndarray]:
    """Per batch of ``plan``, a chunk's rounds per joint bin: one ``bincount`` each."""
    draws = _draw_chunk(seed, lo, len(disclosed))
    return [np.bincount(_joint(bins, disclosed, draws), minlength=math.prod(bins.shape))
            for bins in plan]


def _bin_rows(bins: _Bins, joint: np.ndarray) -> np.ndarray:
    """The row code of each joint bin in ``joint`` at every angle of ``bins``: (angles, bins).

    The row holds the bin's outcome code and, where that outcome is D0,
    Eve's code + 1; this is the one rule for which row a bin is in.
    """
    disclosed, pair, outcome_bin, eve_bin = np.unravel_index(joint, bins.shape)
    outcome = bins.outcome_codes[:, pair, outcome_bin]
    eve = np.where(outcome == _D0, bins.eve_codes[:, pair, eve_bin], 0)
    return np.ravel_multi_index((pair >> 1, pair & 1, outcome, eve, disclosed), HISTOGRAM_SHAPE)


def _cells(bins: _Bins, counts: np.ndarray) -> np.ndarray:
    """Each angle's row-code histogram: each joint bin's count added to its ``_bin_rows`` row."""
    (joint,) = np.nonzero(counts)
    rows = _bin_rows(bins, joint)
    histograms = np.zeros((len(rows), _ROW_CODES), np.int64)
    # Indexed (angle, row): numpy 2.4.6's add.at garbles counts broadcast to a flat 2-D index.
    np.add.at(histograms, (np.arange(len(rows))[:, None], rows), counts[joint])
    return histograms


def _code_task(config: SessionConfig):
    """The ``_map_chunks`` task of ``config``'s rounds: a chunk's (first round id, row codes).

    A round's row code is its joint bin's ``_bin_rows`` row in its angle's
    one-angle plan, the bins that its session is counted in.
    """
    (bins,) = _sweep_plan((config.upsilon,))
    (rows,) = _bin_rows(bins, np.arange(math.prod(bins.shape))).astype(np.uint8)

    def task(lo: int, disclosed: np.ndarray) -> tuple[int, np.ndarray]:
        draws = _draw_chunk(config.seed, lo, len(disclosed))
        return lo, rows.take(_joint(bins, disclosed, draws))
    return task


def _chunk_bounds(n: int, workers: int, block: int) -> list[int]:
    """The first round of each chunk of an ``n``-round session, then ``n``.

    With k = ceil(n / block) chunks of ``block`` rounds and m = min(workers,
    k), the session is c = m * ceil(k / m) chunks: the first c - m hold
    ``block`` rounds and the last m share the rest evenly, so each of the m
    workers gets the same number of chunks and the tail leaves none idle.
    One worker gives k chunks, all full but the last.  No chunk holds more
    than ``block`` rounds or none, and there are fewer than 2k.
    """
    k = -(-n // block)
    m = min(workers, k)
    start = (m * -(-k // m) - m) * block
    tail = (start + j * (n - start) // m for j in range(m + 1))
    return [*range(0, start, block), *dict.fromkeys(tail)]


def _map_chunks(config: SessionConfig, workers: int, task):
    """Yield ``task(lo, disclosed)`` per chunk of ``_chunk_bounds``, in order.

    ``lo`` is the chunk's first round and ``disclosed`` its disclosure
    mask.  The tasks, ``_code_task``'s map at one angle or ``_bin_chunk``'s
    count for a sweep, both read each round's bin from ``_joint``.  They
    run on a pool of min(``workers``, ceil(n / ``SAMPLING_BLOCK``)) threads,
    and each draws its chunk's words at the chunk's own counter step, so a
    round's row depends only on the seed and the round's index.  The
    disclosure stream packs four rounds into each counter step; the calling
    thread draws it in order, a chunk at a time, while the workers count
    earlier chunks.  At most two chunks per thread are in flight, so memory
    does not grow with the session.  Worker threads call only numpy and
    private helpers, never a public function, and share no output: each
    task returns its result, and the caller reads the results in order on
    its own thread.
    """
    n, check_fraction = config.n_rounds, config.check_fraction
    bounds = _chunk_bounds(n, workers, SAMPLING_BLOCK)
    # At ceil(n / SAMPLING_BLOCK) workers or more, there are that many chunks.
    threads = min(workers, len(bounds) - 1)
    disclose = philox_stream(config.seed, DISCLOSE_STREAM)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: collections.deque = collections.deque()
        for lo, hi in itertools.pairwise(bounds):
            disclosed = disclose.random(hi - lo) < check_fraction
            pending.append(pool.submit(task, lo, disclosed))
            if len(pending) > 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _sweep_histograms(config: SessionConfig, upsilons,
                      workers: int) -> tuple[list[SessionConfig], np.ndarray]:
    """The config at each angle of ``upsilons`` and its row-code histogram, one row per angle.

    Every angle's histogram comes from one pass: each chunk's words and
    disclosure mask are drawn once.  ``_sweep_plan`` merges the grid's
    thresholds, ``_bin_chunk`` counts each chunk's rounds per bin, and
    ``_cells`` reads every angle's histogram out of the summed counts.
    """
    if not _is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    configs = [replace(config, upsilon=upsilon) for upsilon in upsilons]
    if not configs:
        return [], np.zeros((0, _ROW_CODES), np.int64)
    plan = _sweep_plan(tuple(c.upsilon for c in configs))
    totals = [0] * len(plan)
    for counts in _map_chunks(config, workers, functools.partial(_bin_chunk, plan, config.seed)):
        totals = [total + c for total, c in zip(totals, counts)]
    return configs, np.concatenate([_cells(bins, total) for bins, total in zip(plan, totals)])


def run_session(config: SessionConfig, workers: int = 1) -> SessionLog:
    """Simulate ``config.n_rounds`` independent rounds: a one-angle ``_sweep_histograms``.

    Round i's uniforms are counter step i of the (seed, round-stream)
    generator and its disclosure uniform is double i of the (seed,
    disclose-stream) generator, so any worker count gives the same log.
    Only the histogram is counted here.  ``sift`` and a per-round export
    map the rounds again as they read them, so neither holds a column; the
    log's record is decoded when a column is first read.
    """
    _, (histogram,) = _sweep_histograms(config, [config.upsilon], workers)
    return SessionLog._of_histogram(config, histogram, workers)


@dataclass
class SiftedKey:
    """Raw key bits from announced D0 rounds not disclosed for checking.

    ``eve_guesses`` holds Eve's bit guess per position (-1 when she has
    none: an inconclusive result, or no Eve code in the row, as in every
    round of an unattacked session), as ``round(i)`` and the export show
    her result.
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

    ``_key`` of each piece of the log's codes, joined.  Alice's bit is 1 when
    she reflected; Bob's bit is 1 when he absorbed.  D0 then implies equal
    bits whenever the choices were anti-correlated.
    """
    keys = [vars(_key(codes)) for _, codes in log._code_pieces()]
    return SiftedKey(**{name: np.concatenate([key[name] for key in keys]) for name in keys[0]})


def _key(codes: np.ndarray) -> SiftedKey:
    """The raw key of rounds whose row codes are ``codes``: each key row's bits and Eve's guess."""
    kept = codes[_KEY_ROW[codes]]
    return SiftedKey(alice_bits=_ROWS["alice"][kept], bob_bits=_BOB_BIT[kept],
                     eve_guesses=_EVE_GUESS[kept])
