"""Shared fixtures: fixed-pair draws from the session sampler."""

import numpy as np
import pytest

from scqkd.protocol import CHOICES_BY_CODE, _sample_codes, sampling_tables


def draw_pair(alice, bob, upsilon, n, rng, given_d0=False):
    """Draw ``n`` rounds of one choice pair; return (outcome codes, Eve codes).

    The codes come from the same tables and mapping that ``run_session``
    uses.  With ``given_d0`` every outcome uniform is 0, which lands on D0
    whenever D0 is possible, so the Eve codes are ``n`` draws of her
    measurement on that pair's D0 probe.
    """
    pair = np.full(n, 2 * CHOICES_BY_CODE.index(alice) + CHOICES_BY_CODE.index(bob))
    u_outcome = np.zeros(n) if given_d0 else rng.random(n)
    return _sample_codes(sampling_tables(upsilon), pair, u_outcome, rng.random(n))


@pytest.fixture(name="draw_pair")
def draw_pair_fixture():
    return draw_pair
