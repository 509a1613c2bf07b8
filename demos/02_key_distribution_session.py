#!/usr/bin/env python3
"""Run a full key distribution session and inspect the raw key.

Both parties pick random switch settings every round; Alice announces
only whether D0 fired.  Announced rounds become key bits (Alice: 1 if she
reflected; Bob: 1 if he absorbed), a random tenth of all rounds is
disclosed for parameter estimation, and the security report condenses the
disclosed statistics.
"""

from scqkd import (
    SessionConfig,
    estimate_from_session,
    run_session,
    sift,
)
from scqkd.protocol import HISTOGRAM_SHAPE


def main():
    config = SessionConfig(n_rounds=200_000, seed=202408, check_fraction=0.1)
    log = run_session(config)

    # These counts read the session's histogram of row codes, whose last axis
    # is the disclosure flag, so no round is mapped again.
    counters = log.counters
    d0_rounds = sum(n for (_, _, outcome), n in counters.items() if outcome == "D0")
    print(f"Simulated {config.n_rounds} rounds (seed {config.seed}).")
    print(f"D0 rounds: {d0_rounds} "
          f"(efficiency {d0_rounds / config.n_rounds:.4f}, ideal 1/8 = 0.125)")
    disclosed = log.histogram.reshape(HISTOGRAM_SHAPE)[..., 1].sum()
    print(f"Disclosed for checking: {disclosed}")

    print("\nPer-cell counts (choice pair -> detector events):")
    for a in ("Absorb", "Reflect"):
        for b in ("Absorb", "Reflect"):
            d0 = counters[(a, b, "D0")]
            d1 = counters[(a, b, "D1")]
            print(f"  ({a:>7}, {b:>7}): D0 = {d0:>6}, D1 = {d1:>6}")
    print("Reflect/reflect rounds never click D0, and absorb/absorb rounds")
    print("never click at all; only anti-correlated settings feed the key.")

    key = sift(log)
    agreement = (key.alice_bits == key.bob_bits).mean()
    print(f"\nSifted key length: {len(key)}")
    print(f"Positionwise agreement: {agreement:.6f} (ideal protocol: 1.0)")
    print(f"First 32 of Alice's bits: {''.join(map(str, key.alice_bits[:32]))}")
    print(f"First 32 of Bob's bits:   {''.join(map(str, key.bob_bits[:32]))}")

    report = estimate_from_session(log)
    print("\nSecurity report from the disclosed subset:")
    print(f"  visibility estimate: {report.visibility_estimate:.4f} "
          f"+/- {report.visibility_se:.4f}")
    print(f"  error-rate estimate: {report.epsilon_estimate:.4f}")
    print(f"  key rate I_B - I_E:  {report.key_rate:.4f}")
    print(f"  secure:              {report.secure}")

    replay = run_session(config, workers=4)
    print("\nReplay with 4 workers is byte-identical:",
          replay.to_json() == log.to_json())


if __name__ == "__main__":
    main()
