"""Shared helpers: rounds mapped by the session's own task, views of a log and peak memory."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from scqkd import protocol
from scqkd.protocol import CHOICES_BY_CODE, SessionConfig


def round_words(pair, w_outcome, w_eve):
    """Round-stream words of rounds with these pair codes and outcome and Eve words.

    Each choice word's top bit is its choice code and its other bits are 0.
    """
    words = np.zeros((len(pair), 4), np.uint64)
    words[:, 0] = (pair >> 1).astype(np.uint64) << 63
    words[:, 1] = (pair & 1).astype(np.uint64) << 63
    words[:, 2], words[:, 3] = w_outcome, w_eve
    return words


def row_codes(pair, outcome, eve, disclosed) -> np.ndarray:
    """Row codes of rounds with these pair, outcome and Eve codes (-1 when absent) and mask.

    A code is the flat index of (alice, bob, outcome, Eve + 1, disclosed) in
    ``HISTOGRAM_SHAPE``: the layout written down once, not read from the
    protocol's encoder.
    """
    pair = np.asarray(pair)
    return np.ravel_multi_index(
        (pair >> 1, pair & 1, outcome, np.asarray(eve, np.int64) + 1, disclosed),
        protocol.HISTOGRAM_SHAPE)


def mapped_codes(upsilon, words, disclosed):
    """Row codes that ``_code_task`` maps one chunk of round-stream ``words`` to at ``upsilon``."""
    task = protocol._code_task(SessionConfig(n_rounds=len(words), upsilon=upsilon))
    with mock.patch.object(protocol, "_philox_words", lambda *args: words):
        _, codes = task(0, disclosed)
    return codes


def draw_pair(alice, bob, upsilon, n, rng, given_d0=False):
    """Draw ``n`` rounds of one choice pair; return (outcome codes, Eve codes).

    The codes are those the session's per-round task maps ``rng``'s raw
    words to, whose top 53 bits give the uniforms that ``rng.random(n)``
    would.  With ``given_d0`` every outcome uniform is 0, which lands on D0
    whenever D0 is possible, so the Eve codes are ``n`` draws of her
    measurement on that pair's D0 probe.
    """
    pair = np.full(n, 2 * CHOICES_BY_CODE.index(alice) + CHOICES_BY_CODE.index(bob), np.uint8)
    w_outcome = np.zeros(n, np.uint64) if given_d0 else rng.bit_generator.random_raw(n)
    words = round_words(pair, w_outcome, rng.bit_generator.random_raw(n))
    columns = protocol._ROWS[mapped_codes(upsilon, words, np.zeros(n, bool))]
    return columns["outcome"], columns["eve_result"]


@pytest.fixture(name="draw_pair")
def draw_pair_fixture():
    return draw_pair


def with_columns(log):
    """``log`` once a column has been read: its record then holds its rounds."""
    log.outcome
    return log


def d0_rounds(log) -> int:
    """The log's D0 rounds: the sum of its histogram's D0 cells."""
    return sum(n for (_, _, outcome), n in log.counters.items() if outcome == "D0")


def peak_traced_mb(fn) -> float:
    """Peak traced allocation, in MiB, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
