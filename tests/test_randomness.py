"""Tests for the counter-based stream factory and the word identity the kernel rests on."""

import math

import numpy as np
import pytest

from scqkd.core import OUTCOME_ORDER, Outcome, build_povm, terminal_distribution
from scqkd.protocol import CHOICES_BY_CODE, _cumulative, _thresholds
from scqkd.randomness import DISCLOSE_STREAM, ROUND_STREAM, _philox_words, philox_stream

import reference


class TestPhiloxStream:
    def test_identical_keys_reproduce_identical_draws(self):
        a = philox_stream(42, 0).random(64)
        b = philox_stream(42, 0).random(64)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = philox_stream(42, 0).random(64)
        b = philox_stream(42, 1).random(64)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = philox_stream(42, 0).random(64)
        b = philox_stream(43, 0).random(64)
        assert not np.array_equal(a, b)

    def test_full_64_bit_seed_range_accepted(self):
        philox_stream(2**64 - 1, 2**64 - 1).random(4)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -1)])
    def test_out_of_range_keys_rejected(self, seed, stream):
        with pytest.raises(ValueError):
            philox_stream(seed, stream)

    @pytest.mark.parametrize("seed,stream", [
        (1.5, 0), (-0.5, 0), (True, 0), ("3", 0), (np.float64(2.0), 0),
        (0, 1.5), (0, False), (0, "1"),
    ])
    def test_keys_that_are_not_integers_rejected(self, seed, stream):
        # int() would take each of these to some other stream's key.
        with pytest.raises(ValueError, match="64-bit unsigned integer"):
            philox_stream(seed, stream)

    def test_numpy_integer_keys_give_the_int_keys_stream(self):
        np.testing.assert_array_equal(philox_stream(np.uint64(5), np.int8(1)).random(8),
                                      philox_stream(5, 1).random(8))

    def test_streams_do_not_see_each_other(self):
        # Drawing from one stream never perturbs another.
        a = philox_stream(7, 0)
        b = philox_stream(7, 1)
        b.random(1000)
        interleaved = a.random(16)
        np.testing.assert_array_equal(interleaved, philox_stream(7, 0).random(16))


class TestWords:
    @pytest.mark.parametrize("stream", [ROUND_STREAM, DISCLOSE_STREAM])
    @pytest.mark.parametrize("counter", [0, 1, 5, 2**40])
    def test_doubles_are_the_top_53_bits_of_the_words(self, stream, counter):
        generator = philox_stream(31, stream)
        generator.bit_generator.advance(counter)
        words = _philox_words(31, stream, counter, 1000)
        assert words.shape == (1000, 4) and words.dtype == np.uint64
        np.testing.assert_array_equal(generator.random(4000), (words.ravel() >> 11) * 2.0**-53)

    @pytest.mark.parametrize("counter", [0, 1, 5])
    def test_a_later_counter_step_is_a_later_row(self, counter):
        np.testing.assert_array_equal(
            _philox_words(31, ROUND_STREAM, counter, 20),
            _philox_words(31, ROUND_STREAM, 0, counter + 20)[counter:],
        )

    @pytest.mark.parametrize("upsilon", [None, 0.0, math.pi / 6, math.pi / 2])
    def test_integer_thresholds_compare_like_the_doubles(self, upsilon):
        outcome_thresholds, eve_thresholds = _thresholds(upsilon)
        # The doubles come from core, not from the tables under test.
        povm = build_povm(upsilon) if eve_thresholds is not None else None
        checked = []
        for pair, row in enumerate(outcome_thresholds):
            dist = terminal_distribution(
                CHOICES_BY_CODE[pair >> 1], CHOICES_BY_CODE[pair & 1], upsilon
            )
            checked.append((_cumulative([dist.probability(o) for o in OUTCOME_ORDER]), row))
            probe = dist.probe(Outcome.D0)
            if povm is not None and probe is not None:
                checked.append((_cumulative(povm.outcome_probabilities(probe)),
                                eve_thresholds[pair]))
        assert eve_thresholds is None or len(checked) > 4
        for cum, thresholds in checked:
            assert thresholds.dtype == np.uint64
            for t, T in zip(cum.ravel().tolist(), thresholds.ravel().tolist()):
                for word in ((T << 11) - 1, T << 11, 0, 2**64 - 1):
                    if 0 <= word < 2**64:
                        k = word >> 11
                        assert (k >= T) == (k * 2.0**-53 >= t), (t, word)


class TestReference:
    """The layout that ``tests/reference.py`` writes down without numpy, against the streams."""

    def test_stream_ids_are_the_packages(self):
        assert reference.ROUND_STREAM == ROUND_STREAM
        assert reference.DISCLOSE_STREAM == DISCLOSE_STREAM

    @pytest.mark.parametrize("seed, stream, step", [
        (0, ROUND_STREAM, 0), (31, DISCLOSE_STREAM, 5), (2**64 - 1, ROUND_STREAM, 12_345),
        (2**63 + 1, DISCLOSE_STREAM, 2**40 + 3), (2**64 - 1, 2**64 - 1, 2**64 - 1),
        (7, ROUND_STREAM, 2**64),
    ])
    def test_a_step_is_the_block_of_the_next_counter(self, seed, stream, step):
        # Steps 2**64 - 1 and 2**64 are the blocks of counters whose low word carries.
        words = _philox_words(seed, stream, step, 2).tolist()
        assert words == [list(reference.philox_block(seed, stream, s)) for s in (step, step + 1)]

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_disclosure_double_i_is_word_i_mod_4_of_step_i_div_4(self, seed):
        n = 4 * 25 + 3
        doubles = philox_stream(seed, DISCLOSE_STREAM).random(n).tolist()
        assert doubles == [(reference.disclosure_word(seed, i) >> 11) * 2.0**-53 for i in range(n)]
