"""Unit tests for the reality/physicality predicates and scenario tables."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from scqkd.ontology import (
    PRIOR_BLOCK,
    Classification,
    IntegrityViolationError,
    ScenarioTable,
    canonical_tables,
    classical_ball_table,
    classical_epistemic_table,
    classical_wave_table,
    classification_matrix,
    classify,
    is_physical,
    is_real,
    quantum_table,
)

UPSILON_GRID = [math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]


def no_detection_posterior(p_psi: float) -> float:
    """P(Bob blocked | Alice received nothing under Reflect), at transport probability ``p_psi``."""
    return classical_epistemic_table(p_psi).posterior_block("Reflect", "Nothing")


class TestBayesNoDetection:
    def test_certain_transport_gives_certain_retrodiction(self):
        assert no_detection_posterior(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_transport_dilutes_the_posterior(self):
        assert no_detection_posterior(0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_no_transport_means_no_information(self):
        assert no_detection_posterior(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_transport_probability(self):
        values = [no_detection_posterior(p) for p in np.linspace(0.0, 1.0, 50)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monte_carlo_oracle(self):
        # Simulate the one-way scenario directly: the entity travels with
        # probability p_psi, Bob blocks with the prior, Alice conditions on
        # not receiving anything.
        p_psi, prior, n = 0.5, PRIOR_BLOCK, 1_000_000
        rng = np.random.default_rng(424242)
        travelled = rng.random(n) < p_psi
        blocked = rng.random(n) < prior
        no_detection = ~travelled | blocked
        posterior_hat = (blocked & no_detection).sum() / no_detection.sum()
        expected = no_detection_posterior(p_psi)
        sigma = math.sqrt(expected * (1 - expected) / no_detection.sum())
        assert abs(posterior_hat - expected) <= 4 * sigma

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="p_psi"):
            no_detection_posterior(1.5)

    def test_matches_the_table_posterior(self):
        # Bayes at the prior 1/2: (1/2) / ((1 - p_psi) + p_psi / 2) = 1 / (2 - p_psi).
        for p_psi in (0.2, 0.5, 0.8):
            assert no_detection_posterior(p_psi) == pytest.approx(1.0 / (2.0 - p_psi), abs=1e-12)


class TestCanonicalScenarios:
    def test_ball_is_real_and_physical(self):
        table = classical_ball_table()
        assert is_real(table)
        assert is_physical(table)
        assert classify(table) is Classification.REAL_PHYSICAL

    def test_wave_is_real_and_physical(self):
        table = classical_wave_table()
        assert is_physical(table)
        assert is_real(table)
        assert classify(table) is Classification.REAL_PHYSICAL

    def test_epistemic_is_neither(self):
        table = classical_epistemic_table(0.5)
        assert not is_real(table)
        assert not is_physical(table)
        assert classify(table) is Classification.EPISTEMIC_NONPHYSICAL

    def test_quantum_is_real_but_not_physical(self):
        table = quantum_table()
        assert is_real(table)
        assert not is_physical(table)
        assert classify(table) is Classification.REAL_NONPHYSICAL

    def test_matrix_matches_the_taxonomy(self):
        rows = {row["scenario"]: row["classification"] for row in classification_matrix()}
        assert rows == {
            "classical_ball": "RealPhysical",
            "classical_wave": "RealPhysical",
            "classical_epistemic": "EpistemicNonphysical",
            "quantum": "RealNonphysical",
        }


class TestClassicalTableRows:
    def test_ball_transport_is_deterministic(self):
        table = classical_ball_table()
        assert table.p_outcome_given_ops[("Reflect", "Absorb")]["AbsorbedBob"] == 1.0
        assert table.p_outcome_given_ops[("Reflect", "Reflect")]["D1"] == 1.0

    def test_epistemic_transport_is_bernoulli(self):
        table = classical_epistemic_table(0.5)
        row = table.p_outcome_given_ops[("Reflect", "Reflect")]
        assert row["NoDetect"] == 0.5
        assert row["D1"] == 0.5

    def test_wave_always_registers_on_both_sides(self):
        table = classical_wave_table()
        assert table.p_bob_detects_given_block == 1.0
        assert table.p_outcome_given_ops[("Reflect", "Absorb")]["D0"] == 1.0
        assert table.p_outcome_given_ops[("Reflect", "Reflect")]["D1"] == 1.0


class TestQuantumTable:
    def test_counterfactual_cell_and_bob_side_detection(self):
        table = quantum_table()
        row = table.p_outcome_given_ops[("Reflect", "Absorb")]
        assert row["D0"] == pytest.approx(0.25, abs=1e-12)
        assert table.p_bob_detects_given_block == pytest.approx(0.5, abs=1e-12)

    def test_no_detection_retrodiction_is_exact(self):
        # A D0 click under Alice's reflect setting certifies the block.
        table = quantum_table()
        assert table.posterior_block("Reflect", "D0") == 1.0

    def test_attack_degrades_the_retrodiction_posterior(self):
        clean = quantum_table().posterior_block("Reflect", "D0")
        attacked = [
            quantum_table(upsilon).posterior_block("Reflect", "D0")
            for upsilon in UPSILON_GRID
        ]
        assert clean == 1.0
        assert all(p < 1.0 for p in attacked)
        assert all(a > b for a, b in zip(attacked, attacked[1:]))

    def test_attacked_posterior_value_at_pi_third(self):
        # 1/8 over (1/8 + (1 - cos u)/4) with cos(pi/3) = 1/2.
        posterior = quantum_table(math.pi / 3).posterior_block("Reflect", "D0")
        assert posterior == pytest.approx(0.5, abs=1e-12)

    def test_absence_still_certifies_the_block_without_losses(self):
        # The attack never destroys the photon, so "nothing arrived" under
        # the reflect setting still deterministically implies the block.
        for upsilon in UPSILON_GRID:
            table = quantum_table(upsilon)
            assert table.posterior_block("Reflect", "Nothing") == 1.0


class TestPredicateMechanics:
    def test_physical_implies_real_on_generated_tables(self):
        tables = canonical_tables()
        tables += [classical_epistemic_table(p) for p in np.linspace(0.1, 0.9, 9)]
        tables += [quantum_table(u) for u in UPSILON_GRID]
        for table in tables:
            if is_physical(table):
                assert is_real(table), table.name

    def test_bob_side_outcomes_are_invisible_to_the_existential(self):
        # The epistemic scenario's Bob-side absorption pins down the block
        # perfectly, but Alice cannot see it; the table must stay unreal.
        table = classical_epistemic_table(0.5)
        row = table.p_outcome_given_ops[("Reflect", "Absorb")]
        assert row["AbsorbedBob"] == 0.5
        assert not is_real(table)

    def test_near_certain_transport_is_not_real(self):
        assert not is_real(classical_epistemic_table(0.999))

    def test_inconsistent_table_raises_an_integrity_error(self):
        # "Yes" regardless of the block: physical by the letter of the
        # conditions, but no observation certifies the block.
        rows = {}
        for alice_op in ("Absorb", "Reflect"):
            rows[(alice_op, "Absorb")] = {"D1": 1.0}
            rows[(alice_op, "Reflect")] = {"D1": 1.0}
        table = ScenarioTable(
            name="pathological",
            p_outcome_given_ops=rows,
            p_bob_detects_given_block=1.0,
        )
        assert is_physical(table)
        assert not is_real(table)
        with pytest.raises(IntegrityViolationError, match="pathological"):
            classify(table)

    def test_zero_probability_observation_rejected(self):
        table = classical_ball_table()
        with pytest.raises(ValueError, match="zero probability"):
            table.posterior_block("Reflect", "D0")


class TestScenarioTableValidation:
    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            ScenarioTable(
                name="broken",
                p_outcome_given_ops={("Reflect", "Reflect"): {"D1": 0.7}},
                p_bob_detects_given_block=1.0,
            )

    def test_unknown_outcome_label_rejected(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            ScenarioTable(
                name="broken",
                p_outcome_given_ops={("Reflect", "Reflect"): {"D9": 1.0}},
                p_bob_detects_given_block=1.0,
            )

    @pytest.mark.parametrize("ops, problem", [
        (("Foo", "Absorb"), "unknown"), (("Absorb", "Bar"), "unknown"),
        (("Reflect", "Reflect"), "missing")])
    def test_an_operation_pair_outside_ops_by_ops_rejected_by_name(self, ops, problem):
        rows = dict(classical_ball_table().p_outcome_given_ops)
        if problem == "missing":
            del rows[ops]
        else:
            rows[ops] = {"D1": 1.0}
        with pytest.raises(ValueError, match=re.escape(f"{problem} operation pair {ops!r}")):
            ScenarioTable(name="broken", p_outcome_given_ops=rows, p_bob_detects_given_block=1.0)

    def test_the_predicates_take_only_a_table(self):
        # The tolerance and the prior are module constants, not settable values.
        for predicate in (is_real, is_physical, classify):
            assert list(inspect.signature(predicate).parameters) == ["table"]
        assert not inspect.signature(classification_matrix).parameters
        assert [f.name for f in dataclasses.fields(ScenarioTable)] == [
            "name", "p_outcome_given_ops", "p_bob_detects_given_block"
        ]
