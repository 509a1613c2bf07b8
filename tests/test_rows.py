"""Per-round JSON and CSV rows against a reference renderer built on ``round(i)``.

``to_json(include_rounds=True)`` and ``to_csv()`` render rows from
templates precomputed per row code, a piece of ``_PIECE_ROWS`` rows at a
time, with each round id split into its decade and its last digit.  The
reference below formats each row from the ``RoundRecord`` that
``SessionLog.round`` materializes, one dict per round, as the serializers
did before the templates.
"""

import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scqkd import protocol
from scqkd.core import ATOL, OUTCOME_ORDER, Outcome
from scqkd.protocol import SessionConfig, run_session

from conftest import log_of_codes, row_codes

UPSILONS = [None, 0.0, math.pi / 6, math.pi / 2]
CHECK_FRACTIONS = [0.0, 0.5, 1.0]
ROUNDS = 5_000
D0 = OUTCOME_ORDER.index(Outcome.D0)


def reference_rows(log, ids=None) -> list[dict]:
    """The rows of rounds ``ids`` (default: every round), in that order."""
    records = map(log.round, range(len(log)) if ids is None else ids)
    return [
        {
            "round_id": rec.round_id,
            "alice": rec.alice_choice.value,
            "bob": rec.bob_choice.value,
            "outcome": rec.outcome.value,
            "announced": rec.announced.value,
            "eve_result": rec.eve_result.value if rec.eve_result else None,
            "sifted": rec.sifted,
            "disclosed": rec.disclosed_for_check,
        }
        for rec in records
    ]


def reference_json(log) -> str:
    doc = {
        "config": dataclasses.asdict(log.config),
        "counters": {",".join(k): v for k, v in log.counters.items()},
        "rounds": reference_rows(log),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def reference_csv_line(row: dict) -> str:
    return (
        f"{row['round_id']},{row['alice']},{row['bob']},{row['outcome']},"
        f"{row['announced']},{row['eve_result'] or ''},"
        f"{str(row['sifted']).lower()},{str(row['disclosed']).lower()}"
    )


def reference_csv_lines(log) -> list[str]:
    lines = ["round_id,alice,bob,outcome,announced,eve_result,sifted,disclosed"]
    lines.extend(map(reference_csv_line, reference_rows(log)))
    return lines


def assert_same_text(actual: str, expected: str) -> None:
    """Equality that reports the first differing character, not a full diff."""
    if actual == expected:
        return
    at = next(
        (i for i, (a, e) in enumerate(zip(actual, expected)) if a != e),
        min(len(actual), len(expected)),
    )
    window = slice(max(at - 120, 0), at + 120)
    pytest.fail(f"texts differ at {at}: {actual[window]!r} != {expected[window]!r}")


def assert_rows_match_reference(log) -> None:
    assert_same_text(log.to_json(include_rounds=True), reference_json(log))
    assert_same_text(log.to_csv(), "\n".join(reference_csv_lines(log)) + "\n")


def reachable_combinations(upsilon) -> set[tuple[int, int, int, int]]:
    """(alice, bob, outcome, eve) codes of positive probability at one angle."""
    # A cell's probability in the law the sampler realizes: its threshold gap times 2**-53.
    p_outcome, p_eve = (
        None if t is None else np.diff(t.astype(np.int64), prepend=0, axis=1) * 2.0**-53
        for t in protocol._thresholds(upsilon)
    )
    combos = set()
    for pair in range(4):
        for outcome in np.flatnonzero(p_outcome[pair] > ATOL):
            if p_eve is not None and outcome == D0:
                eves = np.flatnonzero(p_eve[pair] > ATOL)
            else:
                eves = [-1]
            combos.update((pair >> 1, pair & 1, int(outcome), int(e)) for e in eves)
    return combos


@pytest.fixture(scope="module")
def sessions():
    return {
        (upsilon, fraction): run_session(
            SessionConfig(ROUNDS, upsilon=upsilon, seed=99, check_fraction=fraction)
        )
        for upsilon in UPSILONS
        for fraction in CHECK_FRACTIONS
    }


@pytest.mark.parametrize("fraction", CHECK_FRACTIONS)
@pytest.mark.parametrize("upsilon", UPSILONS)
def test_rows_match_the_reference(sessions, upsilon, fraction):
    assert_rows_match_reference(sessions[upsilon, fraction])


def test_sessions_cover_every_reachable_row(sessions):
    reachable = {
        (*combo, disclosed)
        for upsilon in UPSILONS
        for combo in reachable_combinations(upsilon)
        for disclosed in (0, 1)
    }
    seen = set()
    for log in sessions.values():
        columns = (log.alice, log.bob, log.outcome, log.eve_result, log.disclosed)
        seen.update(zip(*(col.astype(int).tolist() for col in columns)))
    assert seen == reachable


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 2_000),
    upsilon=st.sampled_from(UPSILONS) | st.floats(0.0, math.pi / 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_columns_render_like_the_reference(n, upsilon, seed):
    """Uniformly random codes, reachable or not, as a log edited in place may hold."""
    rng = np.random.default_rng(seed)
    log = log_of_codes(SessionConfig(n, upsilon=upsilon),
                       rng.integers(0, protocol._ROW_CODES, n, dtype=np.uint8))
    assert_rows_match_reference(log)


#: In-range values of each column.
COLUMN_VALUES = {"alice": [0, 1], "bob": [0, 1], "outcome": [0, 1, 2, 3],
                 "eve_result": [-1, 0, 1, 2], "disclosed": [False, True]}


def code_of(log, i: int) -> int:
    """Round ``i``'s row code, encoded from its columns."""
    return int(row_codes(2 * log.alice[i:i + 1] + log.bob[i:i + 1], log.outcome[i:i + 1],
                         log.eve_result[i:i + 1], log.disclosed[i:i + 1])[0])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 3_000),
       upsilon=st.sampled_from(UPSILONS) | st.floats(0.0, math.pi / 2),
       seed=st.integers(0, 2**64 - 1), check_fraction=st.floats(0.0, 1.0),
       workers=st.integers(1, 3))
def test_an_edit_in_place_moves_one_count_and_one_row(data, n, upsilon, seed, check_fraction,
                                                      workers):
    """Setting one entry of a column to another value moves that round alone to its new row."""
    log = run_session(SessionConfig(n, upsilon=upsilon, seed=seed, check_fraction=check_fraction),
                      workers=workers)
    histogram, lines = log.histogram.copy(), log.to_csv().splitlines()
    i = data.draw(st.integers(0, n - 1), label="round")
    name = data.draw(st.sampled_from(sorted(COLUMN_VALUES)), label="column")
    column = getattr(log, name)
    value = data.draw(st.sampled_from([v for v in COLUMN_VALUES[name] if v != column[i]]),
                      label="value")
    old = code_of(log, i)
    column[i] = value
    new = code_of(log, i)
    assert new != old
    histogram[old] -= 1
    histogram[new] += 1
    np.testing.assert_array_equal(log.histogram, histogram)
    edited = log.to_csv().splitlines()
    assert len(edited) == len(lines)
    assert [j for j, (a, b) in enumerate(zip(lines, edited)) if a != b and j != i + 1] == []
    assert edited[i + 1] == reference_csv_line(reference_rows(log, [i])[0])


#: Sessions whose round ids cross each digit width up to 9_999 / 10_000.
WIDTH_CROSSING_ROUNDS = [11, 101, 1_001, 10_001]


@pytest.mark.parametrize("piece", [3, 7, 4_096])
@pytest.mark.parametrize("n", WIDTH_CROSSING_ROUNDS)
@pytest.mark.parametrize("block", [7, 13, 1_000])
def test_rows_match_the_reference_across_chunk_boundaries(block, n, piece):
    """Chunks and pieces that are not a multiple of ten rows split decades between them."""
    with mock.patch.object(protocol, "SAMPLING_BLOCK", block), \
            mock.patch.object(protocol, "_PIECE_ROWS", piece):
        log = run_session(SessionConfig(n, upsilon=math.pi / 6, seed=n, check_fraction=0.3))
        assert_rows_match_reference(log)


def test_rows_of_a_session_above_one_chunk_match_the_reference():
    """Rows around every chunk boundary and every digit width up to 99_999 / 100_000."""
    n = 100_005
    log = run_session(SessionConfig(n, upsilon=math.pi / 6, seed=7, check_fraction=0.3))
    edges = {protocol.SAMPLING_BLOCK * k for k in range(1, n // protocol.SAMPLING_BLOCK + 1)}
    edges |= {10**k for k in range(1, 6)} | {n}
    ids = sorted({i for edge in edges for i in range(edge - 3, edge + 3) if 0 <= i < n} | {0})
    expected = reference_rows(log, ids)

    document = log.to_json(include_rounds=True)
    head = json.dumps({"config": dataclasses.asdict(log.config),
                       "counters": {",".join(k): v for k, v in log.counters.items()},
                       "rounds": []}, sort_keys=True, separators=(",", ":"))
    assert document.startswith(head[:-2]) and document.endswith("]}\n")
    rows = re.findall(r"\{[^{}]*\}", document[len(head) - 2:])
    assert len(rows) == n
    for i, row in zip(ids, expected):
        assert rows[i] == json.dumps(row, sort_keys=True, separators=(",", ":")), i

    lines = log.to_csv().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    for i, row in zip(ids, expected):
        assert lines[i + 1] == reference_csv_line(row), i
