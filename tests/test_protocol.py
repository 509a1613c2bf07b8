"""Unit tests for the session driver, sifting, and serialization."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from scqkd import protocol
from scqkd.core import (
    OUTCOME_ORDER,
    Choice,
    Outcome,
    build_povm,
    terminal_distribution,
)
from scqkd.eve import EVE_OUTCOME_ORDER
from scqkd.protocol import (
    CHOICES_BY_CODE,
    Announcement,
    SessionConfig,
    SessionLog,
    run_session,
    sift,
)

from conftest import (d0_rounds, mapped_codes, peak_traced_mb, round_words, row_codes,
                      with_columns)

EPSILON_PI4 = 0.22654091966098642  # (1 - sqrt(2)/2)/(2 - sqrt(2)/2)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scalar_draw(probabilities, u: float) -> int:
    """Reference inverse-CDF draw, one uniform at a time.

    A uniform past the rounded total picks the last possible outcome.
    """
    acc = 0.0
    for code, p in enumerate(probabilities):
        acc += p
        if u < acc:
            return code
    return max(code for code, p in enumerate(probabilities) if p > 0.0)


def manual_key(alice, bob, outcome, disclosed=None):
    """``_key`` of rounds with these choice and outcome codes and no Eve result."""
    n = len(alice)
    codes = row_codes(
        np.asarray(alice, dtype=np.uint8) * 2 + np.asarray(bob, dtype=np.uint8),
        np.asarray(outcome, dtype=np.uint8),
        np.full(n, -1, dtype=np.int8),
        np.asarray(disclosed if disclosed is not None else [False] * n, dtype=bool),
    )
    return protocol._key(codes)


class TestSessionConfig:
    @pytest.mark.parametrize("n_rounds", [0, True, 2.0])
    def test_zero_rounds_rejected_by_name(self, n_rounds):
        with pytest.raises(ValueError, match="n_rounds"):
            SessionConfig(n_rounds=n_rounds)

    def test_bad_upsilon_rejected_by_name(self):
        with pytest.raises(ValueError, match="upsilon"):
            SessionConfig(n_rounds=10, upsilon=2.0)

    @pytest.mark.parametrize("seed", [-1, False, np.bool_(True), 2**64])
    def test_bad_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SessionConfig(n_rounds=10, seed=seed)

    @pytest.mark.parametrize("integer", [np.int64(3), np.uint64(3), np.uint8(3)])
    def test_numpy_integers_are_stored_as_int(self, integer):
        config = SessionConfig(n_rounds=integer, seed=integer)
        assert type(config.n_rounds) is int and type(config.seed) is int
        assert config == SessionConfig(n_rounds=3, seed=3)

    def test_bad_check_fraction_rejected_by_name(self):
        with pytest.raises(ValueError, match="check_fraction"):
            SessionConfig(n_rounds=10, check_fraction=1.5)

    @pytest.mark.parametrize("field", ["upsilon", "check_fraction"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", float("nan")])
    def test_non_numbers_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SessionConfig(n_rounds=10, **{field: value})

    @pytest.mark.parametrize(
        "upsilon, check_fraction",
        [(1, 1), (np.float32(0.5), np.float64(0.25)), (np.int64(1), np.uint8(0)), (0, 1.0)],
    )
    def test_numeric_fields_are_stored_as_float(self, upsilon, check_fraction):
        config = SessionConfig(n_rounds=10, upsilon=upsilon, check_fraction=check_fraction)
        assert type(config.upsilon) is float and type(config.check_fraction) is float
        plain = SessionConfig(
            n_rounds=10, upsilon=float(upsilon), check_fraction=float(check_fraction)
        )
        assert config == plain
        assert run_session(config).to_json() == run_session(plain).to_json()

    def test_negative_zero_is_stored_as_zero(self):
        config = SessionConfig(n_rounds=1000, upsilon=-0.0, check_fraction=-0.0)
        plain = SessionConfig(n_rounds=1000, upsilon=0.0, check_fraction=0.0)
        assert config == plain and hash(config) == hash(plain)
        assert math.copysign(1.0, config.upsilon) == math.copysign(1.0, config.check_fraction) == 1
        assert run_session(config).to_json() == run_session(plain).to_json()
        assert '"upsilon":0.0' in run_session(config).to_json()

    def test_attack_active_only_for_positive_upsilon(self):
        # Eve measures, and so leaves a code in a row, only at an angle above 0.
        for upsilon, attacked in ((None, False), (0.0, False), (0.3, True)):
            log = run_session(SessionConfig(n_rounds=2000, upsilon=upsilon, seed=4))
            assert (log.eve_result >= 0).any() == attacked
            assert (log.histogram.reshape(protocol.HISTOGRAM_SHAPE)[:, :, :, 1:].sum() > 0) \
                == attacked


class TestSessionLogColumns:
    #: Absorb/Reflect, D0, no Eve result, not disclosed.
    CODE = int(row_codes(np.ones(1, np.uint8), np.zeros(1, np.uint8), np.full(1, -1, np.int8),
                         np.zeros(1, bool))[0])

    @staticmethod
    def log_of_codes(config, codes):
        """``run_session(config)`` with its rounds edited in place into the rounds of ``codes``.

        Each column is assigned its field of the codes' ``_ROWS`` entries, so
        the log holds one round per code.  Tests of the per-round views pass
        codes to ``_rows`` and ``_key``; these tests are of the edit itself.
        """
        log = run_session(config)
        rows = protocol._ROWS[np.asarray(codes)]
        for name in rows.dtype.names:
            getattr(log, name)[:] = rows[name]
        return log

    @pytest.mark.parametrize("args", [(), (SessionConfig(n_rounds=1), [CODE])])
    def test_a_log_has_no_public_constructor(self, args):
        # Every log follows from its config: only run_session makes one.
        with pytest.raises(TypeError, match="no public constructor"):
            SessionLog(*args)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64, np.uint64])
    def test_any_integer_dtype_of_codes_gives_the_same_columns(self, dtype):
        # Each column keeps its record field's dtype, whatever dtype the edit held.
        codes = np.arange(protocol._ROW_CODES)
        expected = protocol._ROWS[codes]
        log = self.log_of_codes(SessionConfig(n_rounds=len(codes)), codes.astype(dtype))
        for name in expected.dtype.names:
            np.testing.assert_array_equal(getattr(log, name), expected[name])
            assert getattr(log, name).dtype == expected[name].dtype
        np.testing.assert_array_equal(log.histogram, np.ones(protocol._ROW_CODES))

    def test_columns_are_edited_in_place_but_never_reassigned(self):
        log = self.log_of_codes(SessionConfig(n_rounds=2), [self.CODE, self.CODE])
        log.outcome[1] = OUTCOME_ORDER.index(Outcome.D1)
        assert log.counters[("Absorb", "Reflect", "D0")] == 1
        assert log.counters[("Absorb", "Reflect", "D1")] == 1
        for name in ("alice", "bob", "outcome", "eve_result", "disclosed"):
            with pytest.raises(AttributeError, match="fixed"):
                setattr(log, name, getattr(log, name).copy())
        with pytest.raises(AttributeError, match="fixed"):
            log.config = SessionConfig(n_rounds=3)

    @pytest.mark.parametrize("name, value", [("alice", 2), ("bob", 2), ("outcome", 4),
                                             ("eve_result", 5), ("eve_result", -2)])
    def test_a_column_edited_out_of_range_is_no_other_row(self, name, value):
        # Code 16 is an Absorb/Absorb round; outcome 4 once counted it as an
        # Absorb/Reflect D0 round, a key round, and Eve's 5 as code 28.
        log = self.log_of_codes(SessionConfig(n_rounds=2), [16, 16])
        getattr(log, name)[0] = value
        for view in (lambda: log.histogram, lambda: log.counters, lambda: sift(log), log.to_csv,
                     lambda: log.to_json(include_rounds=True), lambda: log.round(0)):
            with pytest.raises(ValueError):
                view()
        assert log.round(1) == self.log_of_codes(SessionConfig(n_rounds=2), [16, 16]).round(1)


class TestSampler:
    @pytest.mark.parametrize("upsilon", [None, 0.0, math.pi / 6, math.pi / 2])
    def test_codes_match_a_scalar_reference(self, upsilon):
        povm = build_povm(upsilon) if upsilon else None
        rng = np.random.default_rng(12)
        # Both ends of the word range, and each threshold's last word below
        # it and first word at or above it (words past 2**64 - 1 dropped).
        thresholds = [t for t in protocol._thresholds(upsilon) if t is not None]
        starts = [int(t) << 11 for table in thresholds for t in table.ravel()]
        edges = [w for w in [0, 2**64 - 1, *starts, *(s - 1 for s in starts)] if 0 <= w < 2**64]
        edges = np.array(edges, dtype=np.uint64)
        for pair in range(4):
            dist = terminal_distribution(
                CHOICES_BY_CODE[pair >> 1], CHOICES_BY_CODE[pair & 1], upsilon
            )
            p_outcome = [dist.probability(o) for o in OUTCOME_ORDER]
            probe = dist.probe(Outcome.D0)
            p_eve = None if povm is None or probe is None else povm.outcome_probabilities(probe)
            # Random words (the uniforms rng.random would give) plus the edges.
            words = np.concatenate(
                [rng.bit_generator.random_raw((500, 2)), np.stack([edges, edges[::-1]], 1)]
            )
            pairs = np.full(len(words), pair, np.uint8)
            columns = protocol._ROWS[mapped_codes(
                upsilon, round_words(pairs, words[:, 0], words[:, 1]), np.zeros(len(words), bool))]
            outcome, eve = columns["outcome"], columns["eve_result"]
            for row, (w_outcome, w_eve) in enumerate(words.tolist()):
                u_outcome, u_eve = (w_outcome >> 11) * 2.0**-53, (w_eve >> 11) * 2.0**-53
                expected = scalar_draw(p_outcome, u_outcome)
                assert outcome[row] == expected, (pair, w_outcome)
                if povm is not None and expected == OUTCOME_ORDER.index(Outcome.D0):
                    assert eve[row] == scalar_draw(p_eve, u_eve), (pair, w_eve)
                else:
                    assert eve[row] == -1

    @pytest.mark.parametrize("grid", [[None, 0.0, math.pi / 6, math.pi / 2],
                                      [math.pi / 2, 0.3, None, math.pi / 6, 0.3, 1.1]])
    def test_kernel_maps_threshold_edges_like_the_exact_compare(self, grid):
        # Words laid out as the round stream's: keys at each merged threshold's
        # T - 1, T and T + 1, so at every angle's own, on every pair, under
        # random low bits and choice words.  Each outcome key recurs with
        # every Eve key, so every (outcome, Eve) rectangle of bins is met.
        # Each angle's per-round codes and binned histogram must both equal
        # the exact compare's.
        plan = protocol._sweep_plan(tuple(grid))
        assert len(plan) == 1
        rng = np.random.default_rng(17)
        keys = {k for table in (plan[0].outcome_thresholds, plan[0].eve_thresholds)
                for t in table.ravel().tolist() for k in (t - 1, t, t + 1)}
        keys = np.array(sorted(k for k in keys if 0 <= k < 2**53), dtype=np.uint64)
        pair, k_outcome, k_eve = (a.ravel() for a in np.meshgrid(
            np.arange(4, dtype=np.uint8), keys, keys, indexing="ij"))
        words = rng.integers(0, 2**64, (len(pair), 4), dtype=np.uint64, endpoint=False)
        words[:, 0] = (words[:, 0] >> np.uint64(1)) | (pair >> 1).astype(np.uint64) << 63
        words[:, 1] = (words[:, 1] >> np.uint64(1)) | (pair & 1).astype(np.uint64) << 63
        for column, k in ((2, k_outcome), (3, k_eve)):
            words[:, column] = (words[:, column] & np.uint64(2**11 - 1)) | k << np.uint64(11)
        for disclosed in (rng.random(len(pair)) < 0.5, np.zeros(len(pair), bool),
                          np.ones(len(pair), bool)):
            with mock.patch.object(protocol, "_philox_words", lambda *args: words):
                (counts,) = protocol._bin_chunk(plan, 0, 0, disclosed)
            for upsilon, histogram in zip(grid, protocol._cells(plan[0], counts), strict=True):
                outcome_thresholds, eve_thresholds = protocol._thresholds(upsilon)
                outcome = protocol._count_thresholds(outcome_thresholds, pair, k_outcome)
                eve = np.full(len(pair), -1, dtype=np.int8)
                if eve_thresholds is not None:
                    d0 = outcome == OUTCOME_ORDER.index(Outcome.D0)
                    eve[d0] = protocol._count_thresholds(eve_thresholds, pair[d0], k_eve[d0])
                expected = row_codes(pair, outcome, eve, disclosed)
                np.testing.assert_array_equal(mapped_codes(upsilon, words, disclosed), expected)
                # The binned histogram, every (pair, outcome, Eve, disclosed) cell of it.
                np.testing.assert_array_equal(histogram, np.bincount(expected, minlength=128))

    def test_bucket_tables_are_small_read_only_and_rebuilt_with_the_cache(self):
        # A plan's merged bucket tables: one byte per pair code and bucket.
        per_batch = 2 * 4 * 2**10
        grids = [(None,), (0.0,), (math.pi / 6,), (math.pi / 2,),
                 tuple(k * (math.pi / 2) / 32 for k in range(33))]
        for grid in grids:
            for bins in protocol._sweep_plan(grid):
                assert bins.outcome_buckets.nbytes + bins.eve_buckets.nbytes <= per_batch
                for array in (bins.outcome_buckets, bins.eve_buckets, bins.outcome_thresholds,
                              bins.eve_thresholds, bins.outcome_codes, bins.eve_codes):
                    with pytest.raises(ValueError):
                        array[0] = 0
        assert protocol._sweep_plan.cache_info().maxsize * per_batch <= 2 * 2**20
        (before,) = protocol._sweep_plan((math.pi / 6,))
        protocol._sweep_plan.cache_clear()
        (after,) = protocol._sweep_plan((math.pi / 6,))
        assert after.outcome_buckets is not before.outcome_buckets
        np.testing.assert_array_equal(after.outcome_buckets, before.outcome_buckets)
        np.testing.assert_array_equal(after.eve_buckets, before.eve_buckets)

    def test_clearing_the_plan_alone_rebuilds_it_from_core(self):
        grid = (0.0, math.pi / 6, math.pi / 2)
        before = protocol._sweep_plan(grid)
        protocol._sweep_plan.cache_clear()
        with mock.patch.object(protocol, "terminal_distribution",
                               wraps=protocol.terminal_distribution) as core:
            (after,) = protocol._sweep_plan(grid)
            assert core.call_count == 4 * len(grid)  # one call per choice pair and angle
            assert protocol._sweep_plan(grid)[0] is after
            assert core.call_count == 4 * len(grid)
        (old,) = before
        for name, array in vars(after).items():
            np.testing.assert_array_equal(array, getattr(old, name), err_msg=name)

    def test_importing_the_package_builds_no_table(self):
        # Every cache in the module's namespace, of which its own are the
        # plan, the records and the row templates.
        code = ("import json, scqkd, scqkd.cli, scqkd.protocol as p; "
                "print(json.dumps({n: [f.__module__ == p.__name__, f.cache_info().currsize] "
                "for n, f in vars(p).items() if hasattr(f, 'cache_info')}))")
        src = str(Path(protocol.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        caches = json.loads(done.stdout)
        assert sorted(n for n, (own, _) in caches.items() if own) == [
            "_records", "_row_templates", "_sweep_plan"]
        assert all(size == 0 for _, size in caches.values()), caches

    def test_degenerate_distribution_is_deterministic(self, draw_pair):
        codes, _ = draw_pair(Choice.REFLECT, Choice.REFLECT, None, 100, np.random.default_rng(3))
        assert (codes == OUTCOME_ORDER.index(Outcome.D1)).all()

    def test_fixed_seed_reproduces_the_sequence(self, draw_pair):
        def draw_sequence(seed):
            rng = np.random.default_rng(seed)
            return draw_pair(Choice.ABSORB, Choice.REFLECT, None, 200, rng)[0]

        np.testing.assert_array_equal(draw_sequence(11), draw_sequence(11))

    def test_million_draws_match_binomial_error(self, draw_pair):
        n = 1_000_000
        rng = np.random.default_rng(2024)
        codes, _ = draw_pair(Choice.REFLECT, Choice.REFLECT, math.pi / 3, n, rng)
        hits = int(np.sum(codes == OUTCOME_ORDER.index(Outcome.D0)))
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - 0.25) <= 4 * sigma


class TestRoundView:
    def test_fixed_seed_reproduces_the_record(self):
        config = SessionConfig(n_rounds=50, seed=5)
        first, second = run_session(config), run_session(config)
        for i in range(len(first)):
            assert first.round(i) == second.round(i)

    @pytest.mark.parametrize("i", [-1, 50, -51])
    def test_round_outside_the_session_is_an_index_error(self, i):
        log = run_session(SessionConfig(n_rounds=50, seed=5))
        with pytest.raises(IndexError, match="outside"):
            log.round(i)

    @pytest.mark.parametrize("i", [True, 1.0, np.float64(3.0)])
    def test_round_index_that_is_not_an_integer_is_rejected_by_name(self, i):
        log = run_session(SessionConfig(n_rounds=50, seed=5))
        message = f"round index must be an integer, got {i!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            log.round(i)

    def test_numpy_integer_round_index_gives_an_int_round_id(self):
        log = run_session(SessionConfig(n_rounds=50, seed=5))
        rec = log.round(np.int64(3))
        assert type(rec.round_id) is int
        assert rec == log.round(3)

    def test_announcement_is_a_function_of_the_outcome(self):
        log = run_session(SessionConfig(n_rounds=500, upsilon=math.pi / 4, seed=17))
        for i, rec in enumerate(map(log.round, range(len(log)))):
            assert rec.round_id == i
            assert (rec.announced is Announcement.D0) == (rec.outcome is Outcome.D0)
            assert rec.sifted == (rec.outcome is Outcome.D0)

    def test_eve_data_only_on_attacked_d0_rounds(self):
        log = run_session(SessionConfig(n_rounds=500, upsilon=math.pi / 4, seed=23))
        seen_d0 = False
        for rec in map(log.round, range(len(log))):
            if rec.outcome is Outcome.D0:
                seen_d0 = True
                assert rec.eve_result is not None
            else:
                assert rec.eve_result is None
        assert seen_d0

    @pytest.mark.parametrize("upsilon", [None, 0.0, math.pi / 4])
    def test_eve_result_shows_only_on_an_attacked_sessions_d0_rounds(self, upsilon):
        # A session's own rows: its sampler writes Eve's code only on the D0
        # rounds of an attacked session, and round, the JSON rows and sift agree.
        attacked = upsilon is not None and upsilon > 0.0
        log = run_session(SessionConfig(n_rounds=400, upsilon=upsilon, seed=29))
        rows = json.loads(log.to_json(include_rounds=True))["rounds"]
        key = iter(sift(log).eve_guesses.tolist())
        seen = False
        for rec, row in zip(map(log.round, range(len(log))), rows, strict=True):
            shown = attacked and rec.outcome is Outcome.D0
            seen |= shown
            assert (rec.eve_result is not None) == shown, rec
            assert row["eve_result"] == (rec.eve_result.value if shown else None), rec
            if rec.sifted and not rec.disclosed_for_check:
                assert (next(key) >= 0) <= shown, rec
        assert next(key, None) is None
        assert seen == attacked

    def test_eve_result_shows_exactly_on_the_d0_rows_that_hold_her_code(self):
        # Every row code once, Eve's results on rounds of every outcome
        # included: the code alone decides, with no log and so no angle.
        codes = np.arange(protocol._ROW_CODES, dtype=np.uint8)
        records = (protocol.RoundRecord(code, *protocol._records()[code]) for code in range(128))
        rows = json.loads("[" + protocol._rows("json", 0, codes) + "]")
        lines = protocol._rows("csv", 0, codes).splitlines()
        key = iter(protocol._key(codes).eve_guesses.tolist())
        for code, rec, row, line in zip(range(128), records, rows, lines, strict=True):
            eve = (code >> 1 & 3) - 1
            shown = rec.outcome is Outcome.D0 and eve >= 0
            assert rec.eve_result is (EVE_OUTCOME_ORDER[eve] if shown else None), code
            assert row["eve_result"] == (rec.eve_result.value if shown else None), code
            assert line.split(",")[5] == (rec.eve_result.value if shown else ""), code
            # The key's guess is the bit Eve's shown result names: Plus 0, Minus 1.
            if rec.sifted and not rec.disclosed_for_check:
                assert next(key) == (eve if shown and eve <= 1 else -1), code
        assert next(key, None) is None

    def test_no_eve_round_carries_no_probe(self):
        log = run_session(SessionConfig(n_rounds=100, seed=31))
        for rec in map(log.round, range(len(log))):
            assert rec.eve_result is None

    def test_attacked_d0_record_equals_itself_across_a_table_rebuild(self):
        config = SessionConfig(n_rounds=500, upsilon=math.pi / 4, seed=23)
        log = run_session(config)
        i = int(np.flatnonzero(log.outcome == OUTCOME_ORDER.index(Outcome.D0))[0])
        before = log.round(i)
        assert before.eve_result is not None
        (bins,) = protocol._sweep_plan((config.upsilon,))
        protocol._sweep_plan.cache_clear()
        # A fresh log is mapped through rebuilt tables, not the ones before the clear.
        fresh = run_session(config)
        assert fresh.round(i) == before
        assert hash(fresh.round(i)) == hash(before)
        assert protocol._sweep_plan((config.upsilon,))[0] is not bins


class TestRunSession:
    def test_same_seed_is_bitwise_identical(self):
        config = SessionConfig(n_rounds=5_000, upsilon=math.pi / 3, seed=77)
        a = run_session(config).to_json(include_rounds=True)
        b = run_session(config).to_json(include_rounds=True)
        assert a == b

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_worker_count_cannot_change_the_log(self, workers):
        config = SessionConfig(n_rounds=10_000, upsilon=math.pi / 4, seed=13)
        base = run_session(config, workers=1)
        sharded = run_session(config, workers=workers)
        assert base.to_json(include_rounds=True) == sharded.to_json(include_rounds=True)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_session(SessionConfig(n_rounds=10), workers=0)

    @pytest.mark.parametrize("session", [
        run_session,
        lambda config, workers: protocol._sweep_histograms(config, [config.upsilon], workers),
    ], ids=["run_session", "_sweep_histograms"])
    @pytest.mark.parametrize("workers", [True, 2.0])
    def test_bool_or_float_worker_count_rejected(self, session, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            session(SessionConfig(n_rounds=10), workers=workers)

    def test_numpy_integer_worker_count_accepted(self):
        config = SessionConfig(n_rounds=3_000, upsilon=math.pi / 4, seed=13)
        log = run_session(config, workers=np.int64(2))
        assert log.to_json(include_rounds=True) == run_session(config).to_json(include_rounds=True)
        np.testing.assert_array_equal(
            run_session(config, workers=np.int64(2)).histogram, log.histogram
        )

    def test_ideal_rounds_never_click_d0_on_double_reflect(self):
        log = run_session(SessionConfig(n_rounds=10_000, seed=3))
        counters = log.counters
        assert counters[("Reflect", "Reflect", "D0")] == 0
        assert counters[("Absorb", "Absorb", "D0")] == 0
        assert counters[("Absorb", "Absorb", "D1")] == 0

    def test_choice_pairs_are_uniform(self):
        n = 100_000
        log = run_session(SessionConfig(n_rounds=n, seed=29))
        counters = log.counters
        sigma = math.sqrt(0.25 * 0.75 / n)
        for a in ("Absorb", "Reflect"):
            for b in ("Absorb", "Reflect"):
                freq = sum(counters[(a, b, o.value)] for o in Outcome) / n
                assert abs(freq - 0.25) <= 4 * sigma

    def test_d0_frequency_without_eve(self):
        n = 100_000
        log = run_session(SessionConfig(n_rounds=n, seed=41))
        sigma = math.sqrt((1 / 8) * (7 / 8) / n)
        assert abs(d0_rounds(log) / n - 1 / 8) <= 4 * sigma

    def test_d0_frequency_under_full_strength_attack(self):
        n = 100_000
        log = run_session(SessionConfig(n_rounds=n, upsilon=math.pi / 2, seed=43))
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(d0_rounds(log) / n - 0.25) <= 4 * sigma

    def test_counters_match_a_brute_force_recount(self):
        log = run_session(SessionConfig(n_rounds=2_000, upsilon=math.pi / 4, seed=53))
        recount = {}
        for rec in map(log.round, range(len(log))):
            key = (rec.alice_choice.value, rec.bob_choice.value, rec.outcome.value)
            recount[key] = recount.get(key, 0) + 1
        counters = log.counters
        assert sum(counters.values()) == len(log)
        for key, count in counters.items():
            assert recount.get(key, 0) == count


class TestSummary:
    @pytest.mark.parametrize("upsilon", [None, 0.0, math.pi / 6, math.pi / 2])
    def test_histogram_equals_the_logs_across_chunks(self, upsilon):
        config = SessionConfig(n_rounds=3 * 2**16 + 5, upsilon=upsilon, seed=11)
        log = with_columns(run_session(config))
        for workers in (1, 2):
            summary = run_session(config, workers=workers)
            np.testing.assert_array_equal(summary.histogram, log.histogram)
            assert summary.to_json() == log.to_json()

    def test_stored_histograms_cannot_be_written(self):
        config = SessionConfig(n_rounds=1_000, seed=12)
        for session in (run_session(replace(config, upsilon=u)) for u in (None, 0.0, math.pi / 4)):
            with pytest.raises(ValueError):
                session.histogram[0] += 1

    def test_log_maps_its_columns_only_when_one_is_read(self):
        config = SessionConfig(n_rounds=20_000, upsilon=math.pi / 6, seed=16)
        eager = with_columns(run_session(config))
        log = run_session(config, workers=2)
        assert log.to_json() == eager.to_json()
        # The per-round export maps the rounds again and keeps no column.
        assert log.to_json(include_rounds=True) == eager.to_json(include_rounds=True)
        assert log.to_csv() == eager.to_csv()
        assert "_rounds" not in vars(log)
        outcome = log.outcome
        assert log.to_json(include_rounds=True) == eager.to_json(include_rounds=True)
        # Once mapped, the record is the log's: an edit made through one read
        # of a column shows in the next read and in every view.
        outcome[0] = (outcome[0] + 1) % 4
        assert log.outcome[0] == outcome[0] != eager.outcome[0]
        assert log.to_json() != eager.to_json()
        assert log.to_csv() != eager.to_csv()

    def test_log_histogram_holds_every_round_once(self):
        log = run_session(SessionConfig(n_rounds=5_000, upsilon=math.pi / 4, seed=13))
        assert log.histogram.sum() == 5_000
        assert sum(log.counters.values()) == 5_000

    @pytest.mark.parametrize(
        "histogram, message",
        [
            (np.ones(127, dtype=np.int64), "128 non-negative"),
            (np.r_[-1, 11, np.zeros(126, dtype=np.int64)], "128 non-negative"),
            (np.r_[9, np.zeros(127, dtype=np.int64)], "counts 9 rounds"),
        ],
    )
    def test_bad_histogram_rejected(self, histogram, message):
        with pytest.raises(ValueError, match=message):
            SessionLog._of_histogram(SessionConfig(n_rounds=10), histogram, workers=1)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            protocol._sweep_histograms(SessionConfig(n_rounds=10), [None], workers=0)

    def test_many_workers_on_small_chunks_lose_no_round(self):
        config = SessionConfig(n_rounds=20_000, upsilon=math.pi / 3, seed=15)
        reference = run_session(config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(protocol, "SAMPLING_BLOCK", 97):
                summary = run_session(config, workers=8)
                log = with_columns(run_session(config, workers=8))
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(summary.histogram, reference.histogram)
        for name in ("alice", "bob", "outcome", "eve_result", "disclosed"):
            np.testing.assert_array_equal(getattr(log, name), getattr(reference, name))

    def test_memory_is_flat_in_the_session_length(self):
        def peak(n, workers):
            config = SessionConfig(n_rounds=n, upsilon=math.pi / 6, seed=14)
            return peak_traced_mb(lambda: run_session(config, workers=workers))

        # One worker: how many chunks overlap in time cannot change the peak.
        assert peak(1_000_000, 1) <= 2 * peak(100_000, 1)
        assert peak(1_000_000, 2) < 16

    def test_one_chunk_holds_about_one_word_array(self):
        # The chunk's (2**16, 4) words take 2 MiB; the mapping may add little more.
        config = SessionConfig(n_rounds=2**16, upsilon=math.pi / 6, seed=15)
        disclosed = np.zeros(config.n_rounds, dtype=bool)

        def kernel():
            return protocol._code_task(config)(0, disclosed)
        kernel()  # numpy imports numpy.random on the first draw; leave that untraced
        assert peak_traced_mb(kernel) <= 3.4

    def test_one_binned_chunk_holds_about_one_word_array(self):
        # A 33-angle sweep's chunk: beside its 2 MiB of words, the bucket
        # indexes, the bins and the 0.5 MiB intp copy that bincount makes.
        plan = protocol._sweep_plan(tuple(k * (math.pi / 2) / 32 for k in range(33)))
        assert len(plan) == 1
        disclosed = np.zeros(2**16, dtype=bool)

        def kernel():
            return protocol._bin_chunk(plan, 16, 0, disclosed)
        kernel()  # numpy imports numpy.random on the first draw; leave that untraced
        assert peak_traced_mb(kernel) <= 3.4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_long_grid_is_counted_in_batches_like_one_session_per_angle(self, workers):
        # 300 angles merge into rows too long for one batch's bins.
        grid = np.random.default_rng(18).uniform(0.0, math.pi / 2, 300).tolist()
        grid[7], grid[150], grid[299] = grid[200], None, 0.0
        plan = protocol._sweep_plan(tuple(grid))
        assert len(plan) > 1
        assert sum(len(bins.outcome_codes) for bins in plan) == len(grid)
        for bins in plan:
            assert max(bins.shape[2:]) <= protocol._STRADDLES
            assert math.prod(bins.shape) <= 2**16  # a uint16 joint index
        config = SessionConfig(n_rounds=3_000, seed=19)
        with mock.patch.object(protocol, "SAMPLING_BLOCK", 1_024):
            _, histograms = protocol._sweep_histograms(config, grid, workers)
        for histogram, upsilon in zip(histograms, grid, strict=True):
            single = run_session(replace(config, upsilon=upsilon))
            np.testing.assert_array_equal(histogram, single.histogram)

    def test_a_merged_row_stays_below_the_straddling_sentinel(self):
        # 130 made-up angles without Eve, each adding two outcome thresholds to
        # every row: their joint cells stay few, so the rows' length alone
        # splits the grid, after 127 angles (2 * 127 thresholds and 2**53).
        # Every angle's binned histogram and per-round codes, mapped through
        # its own uncached one-angle plan, must equal the exact compare's.
        rng = np.random.default_rng(20)
        fake = {}
        for angle in range(130):
            thresholds = np.sort(rng.integers(1, 2**53, (4, 4), dtype=np.uint64), axis=1)
            thresholds[:, 2] = thresholds[:, 1]  # an outcome that never happens
            thresholds[:, 3] = 2**53
            fake[angle / 100] = thresholds, None
        with mock.patch.object(protocol, "_thresholds", fake.__getitem__):
            plan = protocol._sweep_plan.__wrapped__(tuple(fake))
        assert [bins.shape[2] for bins in plan] == [protocol._STRADDLES, 2 * 3 + 1]
        disclosed = rng.random(5_000) < 0.3
        counts = protocol._bin_chunk(plan, 21, 0, disclosed)
        histograms = np.concatenate([protocol._cells(b, c) for b, c in zip(plan, counts)])
        words = protocol._philox_words(21, protocol.ROUND_STREAM, 0, len(disclosed))
        pair = (words[:, 0] >> 63 << 1 | words[:, 1] >> 63).astype(np.uint8)
        eve = np.full(len(pair), -1, np.int8)
        with mock.patch.multiple(protocol, _thresholds=fake.__getitem__,
                                 _sweep_plan=protocol._sweep_plan.__wrapped__):
            for (angle, (thresholds, _)), histogram in zip(fake.items(), histograms, strict=True):
                outcome = protocol._count_thresholds(thresholds, pair, words[:, 2] >> 11)
                expected = row_codes(pair, outcome, eve, disclosed)
                np.testing.assert_array_equal(histogram, np.bincount(expected, minlength=128))
                np.testing.assert_array_equal(mapped_codes(angle, words, disclosed), expected)


class TestChunks:
    """A session's chunks, from the bounds alone and through the pool."""

    SIZES = [1, 2, 96, 97, 98, 3 * 97 + 1, 2**16 - 1, 2**16, 2**16 + 1, 200_000, 10**7 + 1]

    @pytest.mark.parametrize("block", [1, 3, 97, 2**16])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7, 10**6])
    def test_bounds_partition_the_session_in_chunks_of_at_most_a_block(self, block, workers):
        for n in (n for n in self.SIZES if n // block <= 10**5):
            bounds = protocol._chunk_bounds(n, workers, block)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n, (n, bounds)
            assert sizes.min() >= 1 and sizes.max() <= block, (n, bounds)
            k = -(-n // block)
            assert len(sizes) < 2 * k or len(sizes) == k == 1, (n, bounds)
            if workers == 1:
                assert bounds == [*range(0, n, block), n]  # each chunk full but the last

    def test_the_tail_is_shared_evenly(self):
        assert np.diff(protocol._chunk_bounds(200_000, 2, 2**16)).tolist() == [
            2**16, 2**16, 34_464, 34_464]
        # 153 chunks at one worker; at two, 152 full ones and the last
        # 38 528 rounds in two halves, 77 chunks a worker.
        sizes = np.diff(protocol._chunk_bounds(10**7, 2, 2**16))
        assert len(sizes) == 154 and (sizes[:152] == 2**16).all()
        assert sizes[152:].tolist() == [19_264, 19_264]
        assert np.diff(protocol._chunk_bounds(3 * 2**16, 2, 2**16)).tolist() == [2**16] * 2 + [
            2**15] * 2
        assert np.diff(protocol._chunk_bounds(200_000, 10**6, 2**16)).tolist() == [50_000] * 4

    @pytest.mark.parametrize("workers", [1, 2, 4, 10**6])
    def test_chunks_follow_the_bounds_and_draw_the_mask_in_order(self, workers):
        # Each task sees its chunk's first round and its part of the one
        # disclosure stream; the pool has no more threads than full chunks.
        config = SessionConfig(n_rounds=1_000, seed=23, check_fraction=0.4)
        pools, executor = [], protocol.ThreadPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return executor(max_workers)

        with mock.patch.object(protocol, "SAMPLING_BLOCK", 97), \
                mock.patch.object(protocol, "ThreadPoolExecutor", pool):
            chunks = list(protocol._map_chunks(config, workers, lambda lo, mask: (lo, mask)))
        assert pools == [min(workers, 11)]
        lows = [lo for lo, _ in chunks]
        assert lows + [1_000] == protocol._chunk_bounds(1_000, workers, 97)
        mask = protocol.philox_stream(23, protocol.DISCLOSE_STREAM).random(1_000) < 0.4
        np.testing.assert_array_equal(np.concatenate([m for _, m in chunks]), mask)


class TestDisclosure:
    def test_zero_fraction_keeps_every_d0_round(self):
        log = run_session(SessionConfig(n_rounds=20_000, seed=61, check_fraction=0.0))
        assert log.disclosed.sum() == 0
        assert len(sift(log)) == d0_rounds(log)

    def test_full_disclosure_empties_the_key(self):
        log = run_session(SessionConfig(n_rounds=5_000, seed=67, check_fraction=1.0))
        assert log.disclosed.all()
        assert len(sift(log)) == 0

    def test_disclosed_count_is_binomial(self):
        n = 100_000
        log = run_session(SessionConfig(n_rounds=n, seed=71, check_fraction=0.1))
        sigma = math.sqrt(n * 0.1 * 0.9)
        assert abs(int(log.disclosed.sum()) - n * 0.1) <= 4 * sigma

    def test_redisclosure_replaces_the_subset(self):
        config = SessionConfig(n_rounds=10_000, seed=73, check_fraction=0.0)
        log = run_session(config)
        marked = run_session(replace(config, check_fraction=0.5))
        assert 0 < marked.disclosed.sum() < len(marked)
        # Only the mask moves: the rounds are drawn from another stream.
        for name in ("alice", "bob", "outcome", "eve_result"):
            np.testing.assert_array_equal(getattr(marked, name), getattr(log, name))
        fresh = run_session(replace(config, check_fraction=0.5), workers=3)
        np.testing.assert_array_equal(marked.disclosed, fresh.disclosed)
        for render in (lambda log: log.to_json(include_rounds=True), SessionLog.to_csv):
            assert sha256(render(marked)) == sha256(render(fresh))

    def test_bad_fraction_rejected(self):
        config = SessionConfig(n_rounds=10, seed=1)
        with pytest.raises(ValueError, match="fraction"):
            run_session(replace(config, check_fraction=1.2))


class TestSift:
    def test_ideal_keys_agree_on_every_position(self):
        log = run_session(SessionConfig(n_rounds=50_000, seed=83))
        key = sift(log)
        assert len(key) > 0
        np.testing.assert_array_equal(key.alice_bits, key.bob_bits)

    def test_bit_convention_on_a_single_counterfactual_round(self):
        # Alice reflected, Bob absorbed, D0 announced: both bits are 1.
        key = manual_key(alice=[1], bob=[0], outcome=[0])
        assert key.alice_bits.tolist() == [1]
        assert key.bob_bits.tolist() == [1]

    def test_bit_convention_on_the_mirror_round(self):
        # Alice absorbed, Bob reflected: both bits are 0.
        key = manual_key(alice=[0], bob=[1], outcome=[0])
        assert key.alice_bits.tolist() == [0]
        assert key.bob_bits.tolist() == [0]

    def test_non_d0_and_disclosed_rounds_are_dropped(self):
        key = manual_key(
            alice=[1, 1, 0, 1],
            bob=[0, 0, 1, 1],
            outcome=[0, 1, 0, 0],
            disclosed=[False, False, True, False],
        )
        assert len(key) == 2  # rounds 0 and 3

    def test_qber_under_attack_matches_the_closed_form(self):
        n = 200_000
        log = run_session(SessionConfig(n_rounds=n, upsilon=math.pi / 4, seed=97))
        key = sift(log)
        sigma = math.sqrt(EPSILON_PI4 * (1 - EPSILON_PI4) / len(key))
        assert abs(key.mismatch_rate() - EPSILON_PI4) <= 4 * sigma

    def test_eve_guesses_unknown_without_an_attack(self):
        log = run_session(SessionConfig(n_rounds=10_000, seed=101))
        key = sift(log)
        assert (key.eve_guesses == -1).all()

    def test_memory_is_flat_in_the_session(self):
        # Only the key rounds' bits outlive a piece of codes: a 4 * 10**6-round
        # log's five columns alone would take 19 MiB.
        log = run_session(SessionConfig(n_rounds=4_000_000, upsilon=math.pi / 6, seed=84))
        sift(run_session(SessionConfig(n_rounds=10)))  # numpy's lazy imports, untraced
        assert peak_traced_mb(lambda: sift(log)) < 6
        assert "_rounds" not in vars(log)

    def test_empty_key_rejects_rates(self):
        key = manual_key(alice=[1], bob=[1], outcome=[1])
        with pytest.raises(ValueError, match="empty"):
            key.mismatch_rate()


class TestSerialization:
    def test_json_roundtrip_and_schema(self):
        log = run_session(SessionConfig(n_rounds=200, upsilon=math.pi / 3, seed=5))
        doc = json.loads(log.to_json(include_rounds=True))
        assert doc["config"] == {
            "n_rounds": 200,
            "upsilon": math.pi / 3,
            "seed": 5,
            "check_fraction": 0.1,
        }
        assert len(doc["rounds"]) == 200
        assert sum(doc["counters"].values()) == 200
        for key in doc["counters"]:
            alice, bob, outcome = key.split(",")
            assert alice in ("Absorb", "Reflect")
            assert bob in ("Absorb", "Reflect")
            assert outcome in ("D0", "D1", "AbsorbedAlice", "AbsorbedBob")

    def test_round_json_fields(self):
        log = run_session(SessionConfig(n_rounds=50, seed=6))
        doc = json.loads(log.to_json(include_rounds=True))
        row = doc["rounds"][0]
        assert set(row) == {
            "round_id", "alice", "bob", "outcome",
            "announced", "eve_result", "sifted", "disclosed",
        }
        assert row["round_id"] == 0
        assert row["eve_result"] is None

    def test_csv_shape_and_header(self):
        log = run_session(SessionConfig(n_rounds=100, upsilon=math.pi / 4, seed=7))
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == "round_id,alice,bob,outcome,announced,eve_result,sifted,disclosed"
        assert len(lines) == 101
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] in ("Absorb", "Reflect")
        assert first[4] in ("D0", "NotD0")
        assert first[6] in ("true", "false")

    def test_announced_column_leaks_only_the_d0_bit(self):
        log = run_session(SessionConfig(n_rounds=2_000, upsilon=math.pi / 4, seed=9))
        for rec in map(log.round, range(len(log))):
            expected = Announcement.D0 if rec.outcome is Outcome.D0 else Announcement.NOT_D0
            assert rec.announced is expected


    def test_row_templates_are_cached_per_format(self):
        protocol._row_templates.cache_clear()
        for upsilon in (None, 0.0, math.pi / 6, math.pi / 2):
            log = run_session(SessionConfig(n_rounds=30, upsilon=upsilon, seed=8))
            log.to_json(include_rounds=True)
            log.to_csv()
        assert protocol._row_templates.cache_info().currsize <= 2
        assert protocol._records.cache_info().currsize <= 1


class TestEncoders:
    def test_csv_line_renders_each_kind_of_cell(self):
        line = protocol._csv_line([None, True, False, 1, 0.1, 2 / 3, "Reflect"])
        assert line == ",true,false,1,0.1,0.666666666667,Reflect\n"

    def test_canonical_sorts_keys_and_drops_spaces(self):
        assert protocol._canonical({"b": [1, None], "a": True}) == '{"a":true,"b":[1,null]}'

    def test_every_artifact_is_encoded_in_protocol(self):
        sources = {path.name: path.read_text()
                   for path in Path(protocol.__file__).parent.glob("*.py")}
        assert sum(text.count("json.dumps(") for text in sources.values()) == 1
        assert [name for name, text in sources.items() if "import json" in text] == [
            "protocol.py"]
        assert sum(text.count('"true" if') for text in sources.values()) == 1
