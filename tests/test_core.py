"""Unit tests for the interferometer and probe linear algebra."""

import math

import numpy as np
import pytest

from scqkd.core import (
    ATOL,
    Arm,
    Choice,
    JointState,
    Outcome,
    apply_switch,
    build_povm,
    eve_interaction,
    make_initial_state,
    probe_pair,
    probe_reference,
    recombine_at_beamsplitter,
    terminal_distribution,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# 20 angles spanning (0, pi/2].
UPSILON_GRID = [math.pi / 2 * k / 20 for k in range(1, 21)]
UPSILON_OPTIONS = [None, 0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]


class TestInitialState:
    def test_amplitudes_match_input_beamsplitter(self):
        state = make_initial_state()
        np.testing.assert_allclose(state.amp_a, [INV_SQRT2, 0.0], atol=ATOL)
        np.testing.assert_allclose(state.amp_b, [1j * INV_SQRT2, 0.0], atol=ATOL)

    def test_unit_norm(self):
        assert make_initial_state().total_weight == pytest.approx(1.0, abs=ATOL)

    def test_external_arm_carries_half_the_probability(self):
        assert make_initial_state().arm_weight(Arm.B) == pytest.approx(0.5, abs=ATOL)

    def test_rejects_overweight_state(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            JointState(amp_a=np.array([1.0, 0.0]), amp_b=np.array([0.5, 0.0]))


class TestProbePair:
    def test_zero_angle_gives_identical_states(self):
        plus, minus = probe_pair(0.0)
        np.testing.assert_allclose(plus, minus, atol=ATOL)
        np.testing.assert_allclose(plus, probe_reference(), atol=ATOL)

    def test_right_angle_gives_orthogonal_states(self):
        plus, minus = probe_pair(math.pi / 2)
        assert abs(np.vdot(minus, plus)) == pytest.approx(0.0, abs=ATOL)

    def test_overlap_at_pi_third_is_half(self):
        # Oracle: the explicit inner product of the constructed vectors.
        plus, minus = probe_pair(math.pi / 3)
        overlap = complex(np.vdot(minus, plus))
        assert overlap.real == pytest.approx(0.5, abs=ATOL)
        assert overlap.imag == pytest.approx(0.0, abs=ATOL)

    @pytest.mark.parametrize("upsilon", UPSILON_GRID)
    def test_overlap_equals_cosine_and_states_normalized(self, upsilon):
        plus, minus = probe_pair(upsilon)
        assert np.vdot(plus, plus).real == pytest.approx(1.0, abs=ATOL)
        assert np.vdot(minus, minus).real == pytest.approx(1.0, abs=ATOL)
        assert np.vdot(minus, plus).real == pytest.approx(math.cos(upsilon), abs=ATOL)

    @pytest.mark.parametrize("upsilon", [-0.1, math.pi / 2 + 0.1, 10.0])
    def test_out_of_range_rejected(self, upsilon):
        with pytest.raises(ValueError, match="upsilon"):
            probe_pair(upsilon)


class TestEveInteraction:
    def test_zero_angle_keeps_the_product_state(self):
        state = eve_interaction(make_initial_state(), 0.0)
        np.testing.assert_allclose(state.amp_a, [INV_SQRT2, 0.0], atol=ATOL)
        np.testing.assert_allclose(state.amp_b, [1j * INV_SQRT2, 0.0], atol=ATOL)

    def test_orthogonal_probes_fully_mix_the_path(self):
        state = eve_interaction(make_initial_state(), math.pi / 2)
        plus, minus = probe_pair(math.pi / 2)
        np.testing.assert_allclose(state.amp_a, INV_SQRT2 * minus, atol=ATOL)
        np.testing.assert_allclose(state.amp_b, 1j * INV_SQRT2 * plus, atol=ATOL)
        # Tracing out the probe: diagonal 1/2, vanishing coherence.
        coherence = complex(np.vdot(state.amp_b, state.amp_a))
        assert state.arm_weight(Arm.A) == pytest.approx(0.5, abs=ATOL)
        assert abs(coherence) == pytest.approx(0.0, abs=ATOL)

    def test_isometry_preserves_norm(self):
        state = eve_interaction(make_initial_state(), math.pi / 4)
        assert state.total_weight == pytest.approx(1.0, abs=ATOL)

    def test_rejects_already_entangled_probe(self):
        entangled = JointState(
            amp_a=np.array([INV_SQRT2, 0.0]), amp_b=np.array([0.0, INV_SQRT2])
        )
        with pytest.raises(ValueError, match="reference state"):
            eve_interaction(entangled, math.pi / 4)


class TestApplySwitch:
    def test_reflect_is_identity(self):
        state = make_initial_state()
        for arm in (Arm.A, Arm.B):
            new_state, weight, probe = apply_switch(state, arm, Choice.REFLECT)
            assert weight == 0.0
            assert probe is None
            np.testing.assert_allclose(new_state.amp_a, state.amp_a, atol=ATOL)
            np.testing.assert_allclose(new_state.amp_b, state.amp_b, atol=ATOL)

    def test_absorbing_the_internal_arm_takes_half_the_weight(self):
        new_state, weight, probe = apply_switch(
            make_initial_state(), Arm.A, Choice.ABSORB
        )
        assert weight == pytest.approx(0.5, abs=ATOL)
        assert np.vdot(probe, probe).real == pytest.approx(1.0, abs=ATOL)
        assert new_state.arm_weight(Arm.A) == 0.0
        assert new_state.arm_weight(Arm.B) == pytest.approx(0.5, abs=ATOL)

    def test_absorbing_both_arms_leaves_nothing_for_the_detectors(self):
        state, w_a, _ = apply_switch(make_initial_state(), Arm.A, Choice.ABSORB)
        state, w_b, _ = apply_switch(state, Arm.B, Choice.ABSORB)
        assert w_a + w_b == pytest.approx(1.0, abs=ATOL)
        assert state.total_weight == pytest.approx(0.0, abs=ATOL)

    def test_absorbing_an_empty_arm_yields_nothing(self):
        state, _, _ = apply_switch(make_initial_state(), Arm.A, Choice.ABSORB)
        _, weight, probe = apply_switch(state, Arm.A, Choice.ABSORB)
        assert weight == 0.0
        assert probe is None


class TestRecombine:
    def test_both_arms_reflected_give_a_bright_fringe_at_d1(self):
        d0, d1 = recombine_at_beamsplitter(make_initial_state())
        assert np.vdot(d0, d0).real == pytest.approx(0.0, abs=ATOL)
        assert np.vdot(d1, d1).real == pytest.approx(1.0, abs=ATOL)

    def test_single_arm_splits_evenly(self):
        # Oracle: multiply the 2x2 transfer matrix by hand per probe coordinate.
        state, _, _ = apply_switch(make_initial_state(), Arm.B, Choice.ABSORB)
        transfer = np.array([[1.0, 1j], [1.0, -1j]]) * INV_SQRT2
        expected = [transfer @ np.array([state.amp_a[k], state.amp_b[k]])
                    for k in range(2)]
        d0, d1 = recombine_at_beamsplitter(state)
        for k in range(2):
            assert d0[k] == pytest.approx(expected[k][0], abs=ATOL)
            assert d1[k] == pytest.approx(expected[k][1], abs=ATOL)
        assert np.vdot(d0, d0).real == pytest.approx(0.25, abs=ATOL)
        assert np.vdot(d1, d1).real == pytest.approx(0.25, abs=ATOL)

    def test_attacked_bright_fringe_splits_at_orthogonal_probes(self):
        state = eve_interaction(make_initial_state(), math.pi / 2)
        d0, d1 = recombine_at_beamsplitter(state)
        assert np.vdot(d0, d0).real == pytest.approx(0.5, abs=ATOL)
        assert np.vdot(d1, d1).real == pytest.approx(0.5, abs=ATOL)

    def test_unitarity_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            raw /= np.sqrt(np.vdot(raw, raw).real)  # total weight exactly 1
            state = JointState(amp_a=raw[0], amp_b=raw[1])
            d0, d1 = recombine_at_beamsplitter(state)
            total = np.vdot(d0, d0).real + np.vdot(d1, d1).real
            assert total == pytest.approx(state.total_weight, abs=ATOL)


class TestTerminalDistribution:
    def test_ideal_detection_table(self):
        table = {
            (Choice.REFLECT, Choice.REFLECT): {Outcome.D0: 0.0, Outcome.D1: 1.0},
            (Choice.ABSORB, Choice.REFLECT): {Outcome.D0: 0.25, Outcome.D1: 0.25},
            (Choice.REFLECT, Choice.ABSORB): {Outcome.D0: 0.25, Outcome.D1: 0.25},
            (Choice.ABSORB, Choice.ABSORB): {Outcome.D0: 0.0, Outcome.D1: 0.0},
        }
        for (alice, bob), expected in table.items():
            dist = terminal_distribution(alice, bob)
            for outcome, p in expected.items():
                assert dist.probability(outcome) == pytest.approx(p, abs=ATOL)

    def test_double_absorption_splits_evenly(self):
        dist = terminal_distribution(Choice.ABSORB, Choice.ABSORB)
        assert dist.probability(Outcome.ABSORBED_ALICE) == pytest.approx(0.5, abs=ATOL)
        assert dist.probability(Outcome.ABSORBED_BOB) == pytest.approx(0.5, abs=ATOL)

    def test_attacked_dark_port_at_pi_third(self):
        dist = terminal_distribution(Choice.REFLECT, Choice.REFLECT, math.pi / 3)
        assert dist.probability(Outcome.D0) == pytest.approx(0.25, abs=ATOL)
        assert dist.probability(Outcome.D1) == pytest.approx(0.75, abs=ATOL)

    @pytest.mark.parametrize("upsilon", UPSILON_OPTIONS)
    @pytest.mark.parametrize("alice", list(Choice))
    @pytest.mark.parametrize("bob", list(Choice))
    def test_probabilities_sum_to_one(self, alice, bob, upsilon):
        dist = terminal_distribution(alice, bob, upsilon)
        total = sum(e.probability for e in dist.entries)
        assert total == pytest.approx(1.0, abs=ATOL)
        for entry in dist.entries:
            if entry.probe is not None:
                norm = np.vdot(entry.probe, entry.probe).real
                assert norm == pytest.approx(1.0, abs=ATOL)

    @pytest.mark.parametrize("upsilon", UPSILON_GRID)
    def test_attacked_visibility_law(self, upsilon):
        dist = terminal_distribution(Choice.REFLECT, Choice.REFLECT, upsilon)
        expected = 0.5 * (1.0 - math.cos(upsilon))
        assert dist.probability(Outcome.D0) == pytest.approx(expected, abs=ATOL)

    def test_d0_probes_identify_the_photon_arm(self):
        # The anti-correlated D0 probes coincide (up to phase) with the
        # states tagging each arm, which is what Eve's guess map relies on.
        plus, minus = probe_pair(math.pi / 3)
        via_bob = terminal_distribution(Choice.ABSORB, Choice.REFLECT, math.pi / 3)
        via_alice = terminal_distribution(Choice.REFLECT, Choice.ABSORB, math.pi / 3)
        assert abs(np.vdot(plus, via_bob.probe(Outcome.D0))) == pytest.approx(1.0, abs=ATOL)
        assert abs(np.vdot(minus, via_alice.probe(Outcome.D0))) == pytest.approx(1.0, abs=ATOL)

    def test_zero_probability_outcomes_carry_no_probe(self):
        dist = terminal_distribution(Choice.REFLECT, Choice.REFLECT)
        assert dist.probe(Outcome.D0) is None
        assert dist.probe(Outcome.ABSORBED_ALICE) is None


class TestPovm:
    def test_orthogonal_limit_is_projective(self):
        povm = build_povm(math.pi / 2)
        plus, minus = probe_pair(math.pi / 2)
        np.testing.assert_allclose(povm.p_plus, np.outer(plus, plus.conj()), atol=ATOL)
        np.testing.assert_allclose(povm.p_minus, np.outer(minus, minus.conj()), atol=ATOL)
        np.testing.assert_allclose(povm.p_zero, np.zeros((2, 2)), atol=ATOL)

    @pytest.mark.parametrize("upsilon", UPSILON_GRID)
    def test_elements_complete_psd_and_zero_error(self, upsilon):
        povm = build_povm(upsilon)
        plus, minus = probe_pair(upsilon)
        total = povm.p_plus + povm.p_minus + povm.p_zero
        np.testing.assert_allclose(total, np.eye(2), atol=ATOL)
        for element in povm.elements():
            np.testing.assert_allclose(element, element.conj().T, atol=ATOL)
            assert np.linalg.eigvalsh(element).min() >= -1e-10
        assert np.vdot(minus, povm.p_plus @ minus).real == pytest.approx(0.0, abs=ATOL)
        assert np.vdot(plus, povm.p_minus @ plus).real == pytest.approx(0.0, abs=ATOL)

    def test_inconclusive_rate_on_the_equal_mixture(self):
        povm = build_povm(math.pi / 3)
        plus, minus = probe_pair(math.pi / 3)
        rho_mix = 0.5 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
        assert np.trace(povm.p_zero @ rho_mix).real == pytest.approx(0.5, abs=ATOL)

    @pytest.mark.parametrize("upsilon", [0.0, -0.2, math.pi / 2 + 0.01])
    def test_degenerate_and_out_of_range_angles_rejected(self, upsilon):
        with pytest.raises(ValueError, match="upsilon"):
            build_povm(upsilon)
