"""Property tests of the columnar session log's invariants and of its summary."""

import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scqkd import protocol
from scqkd.core import OUTCOME_ORDER, Choice, Outcome
from scqkd.protocol import SessionConfig, run_session, sift
from scqkd.security import InsufficientCheckDataError, estimate_from_session, sweep_reports

from conftest import mapped_codes, round_words, with_columns

D0 = OUTCOME_ORDER.index(Outcome.D0)
D1 = OUTCOME_ORDER.index(Outcome.D1)

configs = st.builds(
    SessionConfig,
    n_rounds=st.integers(1, 5_000),
    upsilon=st.none() | st.just(0.0) | st.floats(0.0, math.pi / 2),
    seed=st.integers(0, 2**64 - 1),
    check_fraction=st.floats(0.0, 1.0),
)


def column_digest(log) -> str:
    digest = hashlib.sha256()
    for col in (log.alice, log.bob, log.outcome, log.eve_result, log.disclosed):
        digest.update(np.ascontiguousarray(col).tobytes())
    return digest.hexdigest()


@settings(max_examples=40, deadline=None)
@given(config=configs)
def test_log_invariants(config):
    log = run_session(config)
    attacked = config.upsilon is not None and config.upsilon > 0.0
    d0_cells = log.histogram.reshape(protocol.HISTOGRAM_SHAPE)[:, :, D0].sum()
    d0 = log.outcome == D0
    assert d0_cells == d0.sum()
    assert len(sift(log)) == int(np.sum(d0 & ~log.disclosed))
    np.testing.assert_array_equal(log.eve_result >= 0, d0 & attacked)

    absorb_absorb = (log.alice == 0) & (log.bob == 0)
    assert not np.any(absorb_absorb & ((log.outcome == D0) | (log.outcome == D1)))
    if not attacked:
        assert not np.any((log.alice == 1) & (log.bob == 1) & d0)

    assert sum(log.counters.values()) == config.n_rounds


@settings(max_examples=20, deadline=None)
@given(config=configs, block=st.integers(1, 2_000))
def test_worker_and_block_counts_cannot_change_the_log(config, block):
    reference = run_session(config)
    with mock.patch.object(protocol, "SAMPLING_BLOCK", block):
        for workers in range(1, 5):
            log = run_session(config, workers=workers)
            assert column_digest(log) == column_digest(reference)
            assert log.to_json() == reference.to_json()


def row_codes(log) -> np.ndarray:
    """Row codes of a log's rounds, in plain int64 arithmetic."""
    alice, bob, outcome, eve, disclosed = (
        col.astype(np.int64)
        for col in (log.alice, log.bob, log.outcome, log.eve_result, log.disclosed)
    )
    return (((alice * 2 + bob) * 4 + outcome) * 4 + eve + 1) * 2 + disclosed


@settings(max_examples=20, deadline=None)
@given(config=configs, block=st.integers(1, 2_000))
def test_summary_histogram_counts_the_log_rows(config, block):
    expected = np.bincount(row_codes(run_session(config)), minlength=128)
    with mock.patch.object(protocol, "SAMPLING_BLOCK", block):
        for workers in range(1, 5):
            summary = run_session(config, workers=workers)
            np.testing.assert_array_equal(summary.histogram, expected)
            np.testing.assert_array_equal(with_columns(summary).histogram, expected)


def report_or_error(session) -> str:
    try:
        return estimate_from_session(session).to_json()
    except InsufficientCheckDataError as exc:
        return f"InsufficientCheckDataError: {exc}"


report_configs = st.builds(
    SessionConfig,
    n_rounds=st.integers(1, 20_000),
    upsilon=st.none() | st.just(0.0) | st.floats(0.0, math.pi / 2),
    seed=st.integers(0, 2**64 - 1),
    check_fraction=st.floats(0.0, 1.0),
)


@settings(max_examples=30, deadline=None)
@given(config=report_configs, workers=st.integers(1, 4))
def test_summary_report_bytes_equal_the_log_report_bytes(config, workers):
    summary = run_session(config, workers=workers)
    log = with_columns(run_session(config))
    assert summary.to_json() == log.to_json()
    assert summary.counters == log.counters
    np.testing.assert_array_equal(summary.histogram, log.histogram)
    assert report_or_error(summary) == report_or_error(log)


export_upsilons = (st.sampled_from([None, 0.0, math.pi / 6, math.pi / 2])
                   | st.floats(0.0, math.pi / 2))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5_000), upsilon=export_upsilons,
       seed=st.integers(0, 2**64 - 1), check_fraction=st.floats(0.0, 1.0),
       block=st.integers(1, 2_000), piece=st.integers(1, 50), workers=st.integers(1, 4),
       fmt=st.sampled_from(["json", "csv"]))
def test_the_streamed_export_equals_the_column_export(n, upsilon, seed, check_fraction, block,
                                                      piece, workers, fmt):
    config = SessionConfig(n, upsilon=upsilon, seed=seed, check_fraction=check_fraction)
    with mock.patch.object(protocol, "SAMPLING_BLOCK", block), \
            mock.patch.object(protocol, "_PIECE_ROWS", piece):
        log = run_session(config, workers=workers)
        streamed = "".join(log._document(fmt))
        assert "_rounds" not in vars(log)
        assert streamed == "".join(with_columns(log)._document(fmt))


def key_arrays(log) -> list[np.ndarray]:
    key = sift(log)
    return [key.alice_bits, key.bob_bits, key.eve_guesses]


def assert_same_arrays(actual, expected) -> None:
    for a, e in zip(actual, expected, strict=True):
        np.testing.assert_array_equal(a, e)
        assert a.dtype == e.dtype


@settings(max_examples=25, deadline=None)
@given(config=configs, block=st.integers(1, 2_000), piece=st.integers(1, 50),
       workers=st.integers(1, 2))
def test_bulk_views_leave_a_log_unmapped_and_agree_with_its_columns(config, block, piece,
                                                                   workers):
    with mock.patch.object(protocol, "SAMPLING_BLOCK", block), \
            mock.patch.object(protocol, "_PIECE_ROWS", piece):
        log = run_session(config, workers=workers)
        views = [*key_arrays(log), log.histogram]
        csv = log.to_csv()
        assert "_rounds" not in vars(log)
        mapped = with_columns(run_session(config, workers=workers))
        assert_same_arrays(views, [*key_arrays(mapped), mapped.histogram])
        assert csv == mapped.to_csv()

        # An edit made in place turns round 0 into a key round, or out of one.
        was_key = mapped.outcome[0] == D0 and not mapped.disclosed[0]
        mapped.outcome[0] = D1 if was_key else D0
        mapped.disclosed[0] = False
        assert len(sift(mapped)) == len(views[0]) + (-1 if was_key else 1)
        keep = (mapped.outcome == D0) & ~mapped.disclosed
        eve = mapped.eve_result[keep]
        assert_same_arrays(key_arrays(mapped), [
            mapped.alice[keep], 1 - mapped.bob[keep],
            np.where(eve <= 1, eve, -1).astype(np.int8)])


# Few distinct values, so grids often repeat an angle; the ends 0 and pi/2 drawn often.
grid_angles = st.sampled_from([0.0, math.pi / 2, math.pi / 6]) | st.floats(0.0, math.pi / 2)


def reports_or_error(make_reports) -> list[str] | str:
    try:
        return [report.to_json() for report in make_reports()]
    except InsufficientCheckDataError as exc:
        return f"InsufficientCheckDataError: {exc}"


@settings(max_examples=25, deadline=None)
@given(grid=st.lists(st.none() | grid_angles, min_size=1, max_size=12), n=st.integers(1, 5_000),
       seed=st.integers(0, 2**64 - 1), check_fraction=st.floats(0.0, 1.0),
       block=st.integers(1, 2_000), workers=st.integers(1, 4))
def test_a_sweep_equals_one_session_per_angle(grid, n, seed, check_fraction, block, workers):
    # The sweep bins every angle against the grid's merged thresholds; each
    # session bins against its own, and its columns are mapped.
    base = SessionConfig(n_rounds=n, seed=seed, check_fraction=check_fraction)
    singles = [run_session(dataclasses.replace(base, upsilon=u)) for u in grid]
    with mock.patch.object(protocol, "SAMPLING_BLOCK", block):
        configs, histograms = protocol._sweep_histograms(base, grid, workers)
        reports = reports_or_error(lambda: sweep_reports(base, grid, workers=workers))
    assert configs == [s.config for s in singles]
    for histogram, single in zip(histograms, singles, strict=True):
        np.testing.assert_array_equal(histogram, single.histogram)
    assert reports == reports_or_error(lambda: map(estimate_from_session, singles))
    # The rounds of each angle's own session, once mapped, count the same rows.
    for histogram, u in zip(histograms, grid):
        columns = with_columns(run_session(dataclasses.replace(base, upsilon=u)))
        np.testing.assert_array_equal(histogram, columns.histogram)


REFLECT = protocol.CHOICES_BY_CODE.index(Choice.REFLECT)


@settings(max_examples=25, deadline=None)
@given(grid=st.lists(grid_angles, min_size=2, max_size=12).map(sorted),
       n=st.integers(3_200, 60_000), seed=st.integers(0, 2**64 - 1),
       check_fraction=st.floats(0.25, 1.0), block=st.integers(16, 8_192),
       workers=st.integers(1, 3))
def test_a_sorted_sweep_is_a_monotone_coupling(grid, n, seed, check_fraction, block, workers):
    # Every angle reads the same words and mask.  A disclosed Reflect/Reflect
    # round is D0 or D1 at every angle, and D0 exactly when its key is below
    # T_D0(upsilon), which does not decrease in upsilon: along a sorted grid
    # n_FF stays, n_D0 never falls, V-hat never rises and ``secure`` flips
    # at most once, from True to False.  With n * check_fraction >= 800, at
    # least 200 rounds are disclosed Reflect/Reflect on average, so every
    # example reaches the reports: fewer than 100 has odds below 1e-15.
    base = SessionConfig(n_rounds=n, seed=seed, check_fraction=check_fraction)
    with mock.patch.object(protocol, "SAMPLING_BLOCK", block):
        _, histograms = protocol._sweep_histograms(base, grid, workers)
        reports = sweep_reports(base, grid, workers=workers)
    checked = (histograms.reshape(-1, *protocol.HISTOGRAM_SHAPE)[:, REFLECT, REFLECT, ..., 1]
               .sum(axis=2))
    n_d0, n_d1 = checked[:, D0], checked[:, D1]
    assert len(set((n_d0 + n_d1).tolist())) == 1
    assert (np.diff(n_d0) >= 0).all()
    sessions = [run_session(dataclasses.replace(base, upsilon=u)) for u in grid]
    assert [r.to_json() for r in reports] == [estimate_from_session(s).to_json() for s in sessions]
    visibility = [r.visibility_estimate for r in reports]
    assert visibility == sorted(visibility, reverse=True)
    secure = [r.secure for r in reports]
    assert secure == sorted(secure, reverse=True)
    for report in reports:
        # A numpy scalar would pass ==, but json.dumps raises on an np.int64.
        assert all(type(v) in (float, bool, type(None)) for v in vars(report).values()), report


# Threshold values with the row edges 0 and 2**53 and their neighbours drawn often.
thresholds_53 = st.sampled_from([0, 1, 2**52, 2**53 - 1, 2**53]) | st.integers(0, 2**53)
uniform_bits = st.sampled_from([0, 1, 2**52, 2**53 - 1]) | st.integers(0, 2**53 - 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), columns=st.integers(1, 4), n=st.integers(1, 60))
def test_row_compare_counts_each_rounds_own_row(data, columns, n):
    # Any four rows, sorted or not, against a direct per-round count.
    rows = data.draw(st.lists(st.lists(thresholds_53, min_size=columns, max_size=columns),
                              min_size=4, max_size=4))
    thresholds = np.array(rows, dtype=np.uint64)
    pair = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), np.uint8)
    k = np.array(data.draw(st.lists(uniform_bits, min_size=n, max_size=n)), np.uint64)
    expected = [sum(int(k[i]) >= t for t in rows[pair[i]]) for i in range(n)]
    np.testing.assert_array_equal(protocol._count_thresholds(thresholds, pair, k), expected)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), columns=st.integers(1, 4), n=st.integers(0, 60))
def test_bucket_lookup_counts_each_rounds_own_row(data, columns, n):
    # Any four rows, sorted or not, through a session's lookup and fallback.
    rows = data.draw(st.lists(st.lists(thresholds_53, min_size=columns, max_size=columns),
                              min_size=4, max_size=4))
    thresholds = np.array(rows, dtype=np.uint64)
    buckets = protocol._bucket_table(thresholds)
    # Every bucket's first and last key, each threshold's T - 1, T and T + 1
    # and drawn keys, on every row.
    first = np.arange(0, 2**53, protocol._BUCKET_KEYS, dtype=np.uint64)
    edges = {k for t in thresholds.ravel().tolist() for k in (t - 1, t, t + 1)}
    keys = np.concatenate([first, first + np.uint64(protocol._BUCKET_KEYS - 1),
                           np.array(sorted(k for k in edges if 0 <= k < 2**53), np.uint64)])
    pair = np.repeat(np.arange(4, dtype=np.uint8), len(keys))
    k = np.tile(keys, 4)
    drawn = data.draw(st.lists(st.tuples(st.integers(0, 3), uniform_bits), min_size=n, max_size=n))
    pair = np.concatenate([pair, np.array([p for p, _ in drawn], np.uint8)])
    k = np.concatenate([k, np.array([key for _, key in drawn], np.uint64)])
    # Pair codes and words as the session's own chunks draw them, from keys k * 2**11.
    words = round_words(pair, k << np.uint64(11), k << np.uint64(11))
    with mock.patch.object(protocol, "_philox_words", lambda *args: words):
        pair, w_outcome, _ = protocol._draw_chunk(0, 0, len(words))
    count = protocol._look_up(buckets, thresholds, pair, w_outcome)
    np.testing.assert_array_equal(count, (k[:, None] >= thresholds[pair]).sum(axis=1))
    # Each threshold splits at most one bucket of its row.
    assert ((buckets.reshape(4, -1) == protocol._STRADDLES).sum(axis=1) <= columns).all()


def assert_each_bin_in_one_cell(bins, one_hot, upsilons) -> np.ndarray:
    """Each row of ``one_hot``, one joint bin's count, lands in one cell at every angle.

    No bin lands in a cell that holds an Eve code unless the cell's outcome
    is D0 and its angle, of ``upsilons`` (the plan's, in order), is above 0:
    a row code alone tells whether Eve measured.
    """
    cells = protocol._cells(bins, one_hot)
    assert cells.shape == (len(one_hot), len(upsilons), protocol._ROW_CODES)
    assert cells.min() >= 0
    np.testing.assert_array_equal(cells.sum(axis=-1), 1)
    attacked = np.array([[u is not None and u > 0.0] for u in upsilons])
    rows = protocol._ROWS
    assert not cells[..., (rows["eve_result"] >= 0) & ~(attacked & (rows["outcome"] == D0))].any()
    return cells


def least_keys(thresholds) -> list[int]:
    """0 and each threshold below 2**53: the least key of every bin that a key can reach."""
    return [0, *(t for t in thresholds.tolist() if t < 2**53)]


@settings(max_examples=50, deadline=None)
@given(upsilon=st.none() | st.just(0.0) | st.floats(0.0, math.pi / 2))
def test_a_rounds_row_is_the_row_its_bin_is_counted_in(upsilon):
    # The per-round map and the histogram share one rule: the row code that
    # _code_task maps a round to is the one cell that _cells counts a round
    # of its joint bin in.  One round per reachable joint bin: its keys are
    # the least of their outcome and Eve bins.
    (bins,) = protocol._sweep_plan((upsilon,))
    cells = math.prod(bins.shape)
    assert cells <= 160
    identity = assert_each_bin_in_one_cell(bins, np.eye(cells, dtype=np.int64), [upsilon])[:, 0]
    rounds = [(d, p, k_o, k_e) for p in range(4) for d in (0, 1)
              for k_o in least_keys(bins.outcome_thresholds[p])
              for k_e in least_keys(bins.eve_thresholds[p])]
    disclosed, pair, k_outcome, k_eve = np.array(rounds, np.uint64).T
    disclosed, pair = disclosed.astype(bool), pair.astype(np.uint8)
    words = round_words(pair, k_outcome << np.uint64(11), k_eve << np.uint64(11))
    codes = mapped_codes(upsilon, words, disclosed)
    assert codes.dtype == np.uint8
    outcome_bin = protocol._count_thresholds(bins.outcome_thresholds, pair, k_outcome)
    eve_bin = protocol._count_thresholds(bins.eve_thresholds, pair, k_eve)
    joint = np.ravel_multi_index((disclosed, pair, outcome_bin, eve_bin), bins.shape)
    np.testing.assert_array_equal(identity[joint], np.eye(protocol._ROW_CODES)[codes])


def test_every_joint_bin_of_the_sweep_grid_plan_lands_in_one_cell_per_angle():
    # The benchmark's 33-angle grid is one batch of 9 520 joint bins: the
    # whole identity, 128 bins at a time.
    grid = [k * (math.pi / 2) / 32 for k in range(33)]
    (bins,) = protocol._sweep_plan(tuple(grid))
    cells = math.prod(bins.shape)
    for lo in range(0, cells, 128):
        assert_each_bin_in_one_cell(bins, np.eye(128, cells, lo, dtype=np.int64)[:cells - lo],
                                    grid)


#: 300 angles, None and 0 among them: four batches of up to 2**16 joint bins.
LONG_GRID = (*np.random.default_rng(18).uniform(0.0, math.pi / 2, 298).tolist(), None, 0.0)


def bin_coordinates(edges, size: int):
    """A bin on one axis: every angle's edges and the bins just below them drawn often."""
    near = sorted({b for e in edges.ravel().tolist() for b in (e - 1, e) if 0 <= b < size})
    return st.sampled_from(near) | st.integers(0, size - 1)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_joint_bins_of_a_multi_batch_plan_land_in_one_cell_per_angle(data):
    # A batch's identity holds 2**32 prefix sums, so its bins are drawn.
    plan = protocol._sweep_plan(LONG_GRID)
    assert len(plan) > 1
    # A batch holds the grid's next angles, in order.
    starts = np.cumsum([0, *(len(bins.outcome_edges) for bins in plan)]).tolist()
    batch = data.draw(st.integers(0, len(plan) - 1))
    bins = plan[batch]
    drawn = data.draw(st.lists(st.tuples(
        st.integers(0, 1), st.integers(0, 3), bin_coordinates(bins.outcome_edges, bins.shape[2]),
        bin_coordinates(bins.eve_edges, bins.shape[3])), min_size=1, max_size=32))
    one_hot = np.zeros((len(drawn), math.prod(bins.shape)), np.int64)
    one_hot[np.arange(len(drawn)), np.ravel_multi_index(np.array(drawn).T, bins.shape)] = 1
    assert_each_bin_in_one_cell(bins, one_hot, LONG_GRID[starts[batch]:starts[batch + 1]])
