"""Unit tests for the security quantities and session estimators."""

import json
import math

import numpy as np
import pytest

from scqkd.core import Choice, Outcome, terminal_distribution
from scqkd.protocol import SessionConfig, run_session
from scqkd.security import (
    InsufficientCheckDataError,
    binary_entropy,
    epsilon_of_visibility,
    estimate_from_session,
    key_rate,
    solve_threshold,
    sweep_csv,
    sweep_reports,
    visibility_of_upsilon,
)

# Frozen from a 30-digit arbitrary-precision evaluation.
H_02 = 0.7219280948873623
H_ONE_SIXTH = 0.6500224216483542
KEY_RATE_08 = 0.14997757835164578
EPSILON_PI4 = 0.22654091966098642


class TestBinaryEntropy:
    def test_boundary_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_reference_value(self):
        assert binary_entropy(0.2) == pytest.approx(H_02, abs=1e-12)

    def test_symmetry_is_exact(self):
        for p in np.linspace(0.01, 0.99, 99):
            assert binary_entropy(float(p)) == binary_entropy(float(1.0 - p))

    def test_concavity_on_a_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [binary_entropy(float(p)) for p in grid]
        second = np.diff(values, n=2)
        assert (second <= 1e-12).all()

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2.0])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ValueError, match="p"):
            binary_entropy(p)


class TestVisibility:
    def test_endpoint_values(self):
        assert visibility_of_upsilon(0.0) == 1.0
        assert visibility_of_upsilon(math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_intermediate_value(self):
        assert visibility_of_upsilon(math.pi / 3) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="upsilon"):
            visibility_of_upsilon(-0.1)


class TestEpsilonOfVisibility:
    def test_perfect_visibility_means_no_errors(self):
        assert epsilon_of_visibility(1.0) == 0.0

    def test_zero_visibility_boundary_against_a_bayes_recount(self):
        # Oracle: recompute P(both-reflect | D0) from the exact terminal
        # distributions at the orthogonal-probe attack.
        upsilon = math.pi / 2
        joint_d0 = {}
        for alice in Choice:
            for bob in Choice:
                dist = terminal_distribution(alice, bob, upsilon)
                joint_d0[(alice, bob)] = 0.25 * dist.probability(Outcome.D0)
        recount = joint_d0[(Choice.REFLECT, Choice.REFLECT)] / sum(joint_d0.values())
        assert epsilon_of_visibility(0.0) == pytest.approx(0.5, abs=1e-12)
        assert recount == pytest.approx(epsilon_of_visibility(0.0), abs=1e-12)

    def test_value_at_the_pi_quarter_attack(self):
        assert epsilon_of_visibility(math.sqrt(2) / 2) == pytest.approx(
            EPSILON_PI4, abs=1e-12
        )

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 100)
        values = [epsilon_of_visibility(float(v)) for v in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="visibility"):
            epsilon_of_visibility(1.2)


class TestKeyRate:
    def test_perfect_visibility_gives_a_full_bit(self):
        assert key_rate(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_secure_point(self):
        assert key_rate(0.8) == pytest.approx(KEY_RATE_08, abs=1e-12)
        assert 1.0 - binary_entropy(1.0 / 6.0) == pytest.approx(
            1.0 - H_ONE_SIXTH, abs=1e-12
        )

    def test_insecure_point(self):
        assert key_rate(0.6) < 0.0

    def test_strictly_increasing_above_half(self):
        grid = np.linspace(0.5, 1.0, 101)
        values = [key_rate(float(v)) for v in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestThreshold:
    def test_the_bisection_bracket_holds_the_root(self):
        # solve_threshold bisects [0.5, 0.9] without evaluating its ends.
        assert key_rate(0.5) < 0.0 < key_rate(0.9)

    def test_threshold_near_21_percent(self):
        v_star, epsilon_star = solve_threshold(1e-9)
        assert 0.205 <= epsilon_star <= 0.215
        assert abs(key_rate(v_star)) <= 1e-9

    def test_key_rate_sign_flips_across_the_root(self):
        v_star, _ = solve_threshold(1e-9)
        assert key_rate(v_star + 0.01) > 0.0
        assert key_rate(v_star - 0.01) < 0.0

    def test_tolerance_refinement_is_consistent(self):
        coarse, _ = solve_threshold(1e-3)
        fine, _ = solve_threshold(1e-9)
        assert abs(coarse - fine) < 1e-3

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            solve_threshold(0.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1e-9])
    def test_nan_and_negative_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            solve_threshold(tolerance)

    @pytest.mark.parametrize("tolerance", [1e-16, 1e-17, 5e-324])
    def test_tolerance_below_every_double_residual_names_the_least_one(self, tolerance):
        # The bracket shrinks to two adjacent doubles; neither is a root to 1e-16.
        with pytest.raises(ValueError, match=r"below the least residual .*, 1\.11e-16$"):
            solve_threshold(tolerance)
        v_star, _ = solve_threshold(1.2e-16)  # that least residual is reached
        assert abs(key_rate(v_star)) <= 1.2e-16


class TestEstimateFromSession:
    def test_ideal_session_has_unit_visibility_and_no_errors(self):
        log = run_session(SessionConfig(n_rounds=100_000, seed=301))
        report = estimate_from_session(log)
        assert report.visibility_estimate == 1.0
        assert report.epsilon_estimate == 0.0
        assert report.visibility_analytic == 1.0
        assert report.epsilon_analytic == 0.0
        assert report.secure
        assert report.key_rate == pytest.approx(1.0, abs=1e-12)

    def test_attacked_session_matches_the_closed_forms(self):
        log = run_session(
            SessionConfig(n_rounds=400_000, upsilon=math.pi / 4, seed=303)
        )
        report = estimate_from_session(log)
        v = math.cos(math.pi / 4)
        assert report.visibility_analytic == pytest.approx(v, abs=1e-12)
        assert abs(report.visibility_estimate - v) <= 4 * report.visibility_se
        assert abs(report.epsilon_estimate - EPSILON_PI4) <= 4 * report.epsilon_se
        assert report.epsilon_analytic == pytest.approx(EPSILON_PI4, abs=1e-12)

    def test_orthogonal_attack_is_flagged_insecure(self):
        log = run_session(
            SessionConfig(n_rounds=100_000, upsilon=math.pi / 2, seed=307)
        )
        report = estimate_from_session(log)
        assert not report.secure
        assert report.key_rate < 0.0

    def test_report_is_self_consistent(self):
        log = run_session(
            SessionConfig(n_rounds=200_000, upsilon=math.pi / 6, seed=311)
        )
        report = estimate_from_session(log)
        assert report.key_rate == pytest.approx(
            report.i_bob - report.i_eve, abs=1e-12
        )
        assert json.loads(report.to_json())["secure"] == report.secure

    def test_insufficient_check_data_reports_counts(self):
        log = run_session(SessionConfig(n_rounds=500, seed=313, check_fraction=0.0))
        with pytest.raises(InsufficientCheckDataError, match="got 0"):
            estimate_from_session(log)


class TestSweep:
    def test_rows_follow_the_grid_order(self):
        grid = [math.pi / 2, 0.0, math.pi / 4]
        reports = sweep_reports(SessionConfig(n_rounds=40_000, seed=317), grid)
        assert [r.upsilon for r in reports] == grid
        csv_text = sweep_csv(reports)
        lines = csv_text.strip().split("\n")
        assert lines[0] == (
            "upsilon,visibility,epsilon_analytic,epsilon_estimate,"
            "i_bob,i_eve,key_rate,secure"
        )
        assert len(lines) == 4

    def test_analytic_epsilon_column(self):
        reports = sweep_reports(
            SessionConfig(n_rounds=40_000, seed=319), [0.0, math.pi / 4, math.pi / 2]
        )
        lines = sweep_csv(reports).strip().split("\n")
        eps_column = [float(line.split(",")[2]) for line in lines[1:]]
        assert eps_column[0] == pytest.approx(0.0, abs=1e-12)
        assert eps_column[1] == pytest.approx(EPSILON_PI4, abs=1e-6)
        assert eps_column[2] == pytest.approx(0.5, abs=1e-12)

    def test_empty_grid_yields_header_only(self):
        assert sweep_csv([]).strip().split("\n") == [
            "upsilon,visibility,epsilon_analytic,epsilon_estimate,"
            "i_bob,i_eve,key_rate,secure"
        ]

    @pytest.mark.parametrize("angle", [True, "0.5"])
    def test_bool_or_string_angle_rejected(self, angle):
        # The angle reaches SessionConfig as given: no float() turns True into 1.0.
        with pytest.raises(ValueError, match="upsilon must lie in"):
            sweep_reports(SessionConfig(n_rounds=10_000, seed=321), [angle])

    def test_no_attack_angle_is_an_empty_csv_cell_and_a_json_null(self):
        reports = sweep_reports(SessionConfig(n_rounds=10_000, seed=1), [None])
        rows = sweep_csv(reports).split("\n")
        assert rows[1].startswith(",")
        assert len(rows[1].split(",")) == len(rows[0].split(","))
        assert '"upsilon":null' in reports[0].to_json()

    def test_numpy_float_angle_accepted(self):
        config = SessionConfig(n_rounds=10_000, seed=321)
        reports = sweep_reports(config, [np.float64(0.5)])
        assert reports == sweep_reports(config, [0.5])
        assert type(reports[0].upsilon) is float
