"""Unit tests for the eavesdropper: POVM measurement, guessing, information."""

import math

import numpy as np
import pytest

from scqkd.core import (
    OUTCOME_ORDER,
    Choice,
    Outcome,
    build_povm,
    probe_pair,
    terminal_distribution,
)
from scqkd.eve import EVE_OUTCOME_ORDER, EveOutcome, eve_information
from scqkd.protocol import CHOICES_BY_CODE, SessionConfig, run_session, sift

from conftest import log_of_codes, row_codes

UPSILONS = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


PLUS = EVE_OUTCOME_ORDER.index(EveOutcome.PLUS)


class TestEveMeasure:
    # On D0, (Absorb, Reflect) leaves Eve the |+> probe, (Reflect, Absorb) the |-> probe.

    @pytest.mark.parametrize("upsilon", UPSILONS)
    def test_plus_never_fires_on_the_minus_state(self, upsilon, draw_pair):
        povm = build_povm(upsilon)
        _, minus = probe_pair(upsilon)
        probs = povm.outcome_probabilities(minus)
        assert probs[0] == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(1)
        _, eve = draw_pair(Choice.REFLECT, Choice.ABSORB, upsilon, 5_000, rng, given_d0=True)
        assert (eve >= 0).all()
        assert not (eve == PLUS).any()

    @pytest.mark.parametrize("upsilon", UPSILONS)
    def test_conclusive_probability_on_plus_state(self, upsilon, draw_pair):
        povm = build_povm(upsilon)
        plus, _ = probe_pair(upsilon)
        probs = povm.outcome_probabilities(plus)
        assert probs[0] == pytest.approx(1.0 - math.cos(upsilon), abs=1e-12)
        n = 100_000
        rng = np.random.default_rng(2)
        _, eve = draw_pair(Choice.ABSORB, Choice.REFLECT, upsilon, n, rng, given_d0=True)
        hits = int(np.sum(eve == PLUS))
        p = 1.0 - math.cos(upsilon)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(hits / n - p) <= 4 * sigma

    def test_orthogonal_probes_are_always_identified(self, draw_pair):
        rng = np.random.default_rng(3)
        _, eve = draw_pair(
            Choice.ABSORB, Choice.REFLECT, math.pi / 2, 2_000, rng, given_d0=True
        )
        assert (eve == PLUS).all()


def attacked_log(rounds):
    """An attacked log of undisclosed (alice, bob, outcome, Eve's result or None) rounds."""
    n = len(rounds)
    codes = row_codes(
        np.array([2 * CHOICES_BY_CODE.index(r[0]) + CHOICES_BY_CODE.index(r[1]) for r in rounds],
                 dtype=np.uint8),
        np.array([OUTCOME_ORDER.index(r[2]) for r in rounds], dtype=np.uint8),
        np.array([-1 if r[3] is None else EVE_OUTCOME_ORDER.index(r[3]) for r in rounds],
                 dtype=np.int8),
        np.zeros(n, dtype=bool),
    )
    config = SessionConfig(n_rounds=n, upsilon=math.pi / 3, check_fraction=0.0)
    return log_of_codes(config, codes)


class TestEveGuess:
    # sift turns Eve's result on each key round into her guess of the shared bit.

    def test_guess_map_matches_the_arm_probe_correlation(self):
        # Oracle: the conditional D0 probes of the two anti-correlated cases.
        plus, minus = probe_pair(math.pi / 3)
        external = terminal_distribution(Choice.ABSORB, Choice.REFLECT, math.pi / 3)
        internal = terminal_distribution(Choice.REFLECT, Choice.ABSORB, math.pi / 3)
        assert abs(np.vdot(plus, external.probe(Outcome.D0))) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(minus, internal.probe(Outcome.D0))) == pytest.approx(1.0, abs=1e-12)
        key = sift(attacked_log([
            (Choice.ABSORB, Choice.REFLECT, Outcome.D0, EveOutcome.PLUS),
            (Choice.REFLECT, Choice.ABSORB, Outcome.D0, EveOutcome.MINUS),
        ]))
        # Plus tags the external arm: Alice absorbed, shared bit 0.
        # Minus tags the internal arm: Alice reflected, shared bit 1.
        np.testing.assert_array_equal(key.eve_guesses, [0, 1])
        np.testing.assert_array_equal(key.alice_bits, [0, 1])
        assert key.eve_guess_errors() == 0

    def test_inconclusive_yields_no_guess(self):
        key = sift(attacked_log([
            (Choice.ABSORB, Choice.REFLECT, Outcome.D0, EveOutcome.INCONCLUSIVE),
        ]))
        np.testing.assert_array_equal(key.eve_guesses, [-1])

    def test_non_d0_rounds_get_no_guess(self):
        key = sift(attacked_log([
            (Choice.ABSORB, Choice.REFLECT, Outcome.D1, None),
            (Choice.REFLECT, Choice.ABSORB, Outcome.D0, EveOutcome.MINUS),
            (Choice.REFLECT, Choice.REFLECT, Outcome.D1, None),
        ]))
        np.testing.assert_array_equal(key.eve_guesses, [1])


class TestEveInformation:
    def test_boundary_values(self):
        assert eve_information(0.0) == 0.0
        assert eve_information(math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_value(self):
        assert eve_information(math.pi / 3) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="upsilon"):
            eve_information(-0.5)


class TestSessionAttackStatistics:
    @pytest.mark.parametrize("upsilon", [math.pi / 3, math.pi / 2])
    def test_conclusive_rate_matches_information_on_key_rounds(self, upsilon):
        log = run_session(SessionConfig(n_rounds=200_000, upsilon=upsilon, seed=7))
        key = sift(log)
        n_key = int(key.key_bit_mask().sum())
        p = eve_information(upsilon)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_key)
        assert abs(key.eve_conclusive_rate() - p) <= max(4 * sigma, 1e-12)

    @pytest.mark.parametrize("upsilon", UPSILONS)
    def test_conclusive_guesses_are_never_wrong(self, upsilon):
        log = run_session(SessionConfig(n_rounds=100_000, upsilon=upsilon, seed=8))
        key = sift(log)
        assert key.eve_guess_errors() == 0

    def test_error_rounds_carry_no_shared_bit_but_a_conclusive_probe(self):
        # Both-reflect D0 rounds: the stored probe lies outside the
        # two-state ensemble and the measurement is conclusive on it with
        # certainty, but the parties' bits disagree.
        log = run_session(SessionConfig(n_rounds=200_000, upsilon=math.pi / 3, seed=9))
        key = sift(log)
        mismatched = ~key.key_bit_mask()
        assert mismatched.any()
        assert (key.eve_guesses[mismatched] >= 0).all()
