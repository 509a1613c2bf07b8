"""Shared helpers: fixed-pair draws from the session sampler, a log's columns and peak memory."""

import tracemalloc

import numpy as np
import pytest

from scqkd.protocol import CHOICES_BY_CODE, _sample_codes, sampling_tables


def draw_pair(alice, bob, upsilon, n, rng, given_d0=False):
    """Draw ``n`` rounds of one choice pair; return (outcome codes, Eve codes).

    The codes come from the same tables and mapping that ``run_session``
    uses, fed the top 53 bits of ``rng``'s raw words: the uniforms that
    ``rng.random(n)`` would give.  With ``given_d0`` every outcome uniform
    is 0, which lands on D0 whenever D0 is possible, so the Eve codes are
    ``n`` draws of her measurement on that pair's D0 probe.
    """
    pair = np.full(n, 2 * CHOICES_BY_CODE.index(alice) + CHOICES_BY_CODE.index(bob), np.uint8)
    k_outcome = np.zeros(n, np.uint64) if given_d0 else top_bits(rng.bit_generator.random_raw(n))
    k_eve = top_bits(rng.bit_generator.random_raw(n))
    return _sample_codes(sampling_tables(upsilon), pair, k_outcome, k_eve)


def top_bits(words):
    """The top 53 bits of each 64-bit word: its uniform is that integer times 2**-53."""
    return np.asarray(words, dtype=np.uint64) >> 11


@pytest.fixture(name="draw_pair")
def draw_pair_fixture():
    return draw_pair


def with_columns(log):
    """``log`` once a column has been read: its five columns are then its record."""
    log.outcome
    return log


def peak_traced_mb(fn) -> float:
    """Peak traced allocation, in MiB, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
