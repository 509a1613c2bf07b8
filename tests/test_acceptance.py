"""Acceptance suite: every headline quantitative result at full scale.

Each test covers one acceptance criterion at its stated tolerance and
prints a PASS line on success (run with -v or -s to see them).  Monte
Carlo checks use fixed seeds and 4-sigma binomial bands, so the suite is
deterministic.
"""

import json
import math

import numpy as np
import pytest

from scqkd.cli import main as cli_main
from scqkd.core import (
    OUTCOME_ORDER,
    Choice,
    Outcome,
    build_povm,
    probe_pair,
    terminal_distribution,
)
from scqkd.ontology import (
    PRIOR_BLOCK,
    canonical_tables,
    classical_epistemic_table,
    classification_matrix,
    is_physical,
    is_real,
    quantum_table,
)
from scqkd.protocol import SessionConfig, run_session, sift
from scqkd.security import key_rate, solve_threshold

from conftest import d0_rounds

N_FULL = 1_000_000
ATTACK_GRID = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
EPSILON_PI4 = 0.22654091966098642

IDEAL_TABLE = {
    (Choice.REFLECT, Choice.REFLECT): {Outcome.D0: 0.0, Outcome.D1: 1.0},
    (Choice.ABSORB, Choice.REFLECT): {Outcome.D0: 0.25, Outcome.D1: 0.25},
    (Choice.REFLECT, Choice.ABSORB): {Outcome.D0: 0.25, Outcome.D1: 0.25},
    (Choice.ABSORB, Choice.ABSORB): {Outcome.D0: 0.0, Outcome.D1: 0.0},
}


def four_sigma(p: float, n: int) -> float:
    return 4.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


@pytest.fixture(scope="module")
def ideal_log():
    return run_session(SessionConfig(n_rounds=N_FULL, seed=1001))


@pytest.fixture(scope="module")
def attacked_logs():
    return {
        upsilon: run_session(
            SessionConfig(n_rounds=N_FULL, upsilon=upsilon, seed=2000 + i)
        )
        for i, upsilon in enumerate(ATTACK_GRID)
    }


def test_criterion_1_ideal_detection_table(draw_pair):
    for (alice, bob), expected in IDEAL_TABLE.items():
        dist = terminal_distribution(alice, bob)
        for outcome, p in expected.items():
            assert dist.probability(outcome) == pytest.approx(p, abs=1e-12)
    n = 100_000
    rng = np.random.default_rng(404)
    for (alice, bob), expected in IDEAL_TABLE.items():
        codes, _ = draw_pair(alice, bob, None, n, rng)
        counts = np.bincount(codes, minlength=len(OUTCOME_ORDER))
        for outcome, p in expected.items():
            freq = counts[OUTCOME_ORDER.index(outcome)] / n
            assert abs(freq - p) <= four_sigma(p, n), (alice, bob, outcome)
    print("ACCEPTANCE 1 ideal detection table: PASS")


def test_criterion_2_efficiency_one_eighth(ideal_log):
    freq = d0_rounds(ideal_log) / N_FULL
    assert abs(freq - 1 / 8) <= four_sigma(1 / 8, N_FULL)
    print(f"ACCEPTANCE 2 efficiency 1/8: PASS (P(D0) = {freq:.5f})")


def test_criterion_3_attack_visibility(attacked_logs):
    for upsilon, log in attacked_logs.items():
        expected = 0.5 * (1.0 - math.cos(upsilon))
        dist = terminal_distribution(Choice.REFLECT, Choice.REFLECT, upsilon)
        assert dist.probability(Outcome.D0) == pytest.approx(expected, abs=1e-12)
        both_reflect = (log.alice == 1) & (log.bob == 1)
        n_ff = int(both_reflect.sum())
        freq = float((log.outcome[both_reflect] == 0).mean())
        assert abs(freq - expected) <= four_sigma(expected, n_ff), upsilon
    print("ACCEPTANCE 3 attack visibility law: PASS")


def test_criterion_4_qber_law(attacked_logs):
    key = sift(attacked_logs[math.pi / 4])
    qber = key.mismatch_rate()
    assert abs(qber - EPSILON_PI4) <= four_sigma(EPSILON_PI4, len(key))
    print(f"ACCEPTANCE 4 QBER law: PASS (QBER = {qber:.4f} vs {EPSILON_PI4:.4f})")


def test_criterion_5_eve_statistics(attacked_logs):
    for upsilon, log in attacked_logs.items():
        key = sift(log)
        expected = 1.0 - math.cos(upsilon)
        n_key = int(key.key_bit_mask().sum())
        rate = key.eve_conclusive_rate()
        assert abs(rate - expected) <= max(four_sigma(expected, n_key), 1e-12), upsilon
        assert key.eve_guess_errors() == 0, upsilon
    print("ACCEPTANCE 5 eavesdropper statistics: PASS (zero conclusive errors)")


def test_criterion_6_threshold():
    v_star, epsilon_star = solve_threshold(1e-9)
    assert 0.205 <= epsilon_star <= 0.215
    assert abs(key_rate(v_star)) <= 1e-9
    assert key_rate(v_star + 0.01) > 0.0
    assert key_rate(v_star - 0.01) < 0.0
    print(
        f"ACCEPTANCE 6 threshold: PASS (V* = {v_star:.6f}, eps* = {epsilon_star:.6f})"
    )


def test_criterion_7_povm_properties():
    grid = [math.pi / 2 * k / 20 for k in range(1, 21)]
    for upsilon in grid:
        povm = build_povm(upsilon)
        plus, minus = probe_pair(upsilon)
        np.testing.assert_allclose(
            povm.p_plus + povm.p_minus + povm.p_zero, np.eye(2), atol=1e-12
        )
        for element in povm.elements():
            assert np.linalg.eigvalsh(element).min() >= -1e-10
        assert abs(np.vdot(minus, povm.p_plus @ minus)) <= 1e-12
        assert abs(np.vdot(plus, povm.p_minus @ plus)) <= 1e-12
    print("ACCEPTANCE 7 POVM properties: PASS (20 angles)")


def test_criterion_8_ontology():
    rows = {r["scenario"]: r["classification"] for r in classification_matrix()}
    assert rows == {
        "classical_ball": "RealPhysical",
        "classical_wave": "RealPhysical",
        "classical_epistemic": "EpistemicNonphysical",
        "quantum": "RealNonphysical",
    }
    assert quantum_table().posterior_block("Reflect", "D0") == 1.0

    p_psi, prior, n = 0.5, PRIOR_BLOCK, 1_000_000
    rng = np.random.default_rng(505)
    travelled = rng.random(n) < p_psi
    blocked = rng.random(n) < prior
    no_detection = ~travelled | blocked
    posterior_hat = (blocked & no_detection).sum() / no_detection.sum()
    expected = classical_epistemic_table(p_psi).posterior_block("Reflect", "Nothing")
    assert abs(posterior_hat - expected) <= four_sigma(expected, int(no_detection.sum()))

    tables = canonical_tables()
    tables += [classical_epistemic_table(p) for p in np.linspace(0.1, 0.9, 9)]
    tables += [quantum_table(u) for u in ATTACK_GRID]
    for table in tables:
        assert not (is_physical(table) and not is_real(table)), table.name
    print("ACCEPTANCE 8 ontology classification: PASS")


def test_criterion_9_reproducibility(tmp_path):
    outputs = []
    for workers in ("1", "3"):
        out = tmp_path / f"workers{workers}.json"
        code = cli_main(
            [
                "simulate",
                "--rounds", "200000",
                "--upsilon", "0.7853981633974483",
                "--seed", "31337",
                "--workers", workers,
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["session"]["config"]["seed"] == 31337
    print("ACCEPTANCE 9 reproducibility across workers: PASS (byte-identical)")
