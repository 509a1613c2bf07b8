"""Correctness checks on the artifacts the CLI writes.

Every check returns a list of failure messages; an empty list means the
artifact passed.  Statistical checks compare an estimate with the exact
probability that ``scqkd.core`` gives.  Each artifact's checks share one
false-alarm budget, that of a single two-sided 4-sigma test, split evenly
over its checks, so a 33-row sweep is not 33 times likelier to raise a
false alarm than a single session.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter

FAMILY_SIGMA = 4.0

CSV_HEADER = ["round_id", "alice", "bob", "outcome", "announced", "eve_result",
              "sifted", "disclosed"]


def family_z(n_checks: int) -> float:
    """Per-check z whose two-sided tail, times n_checks, is that of 4 sigma."""
    target = math.erfc(FAMILY_SIGMA / math.sqrt(2.0)) / n_checks
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > target:
            lo = mid
        else:
            hi = mid
    return hi


def exact_d0_probabilities(core, upsilon: float | None) -> tuple[float, float]:
    """P(D0) over uniformly random choices, and P(D0 | Reflect, Reflect)."""
    dists = {
        (a, b): core.terminal_distribution(a, b, upsilon)
        for a in core.Choice for b in core.Choice
    }
    p_d0 = sum(d.probability(core.Outcome.D0) for d in dists.values()) / len(dists)
    p_ff = dists[(core.Choice.REFLECT, core.Choice.REFLECT)].probability(core.Outcome.D0)
    return p_d0, p_ff


def _within(label: str, estimate: float, expected: float, sigma: float, z: float) -> list[str]:
    if abs(estimate - expected) <= z * sigma:
        return []
    return [f"{label}: {estimate!r} is more than {z:.2f} sigma ({sigma:.3g}) "
            f"from {expected!r}"]


def check_visibility(core, report: dict, rounds: int, check_fraction: float,
                     z: float) -> list[str]:
    """V-hat against cos(upsilon).

    Sigma is the binomial spread of V-hat = 1 - 2 n_D0/n_FF under core's
    exact P(D0 | Reflect, Reflect), at the expected number of disclosed
    both-reflect rounds.  The report's own ``visibility_se`` is a plug-in
    estimate that reads 0 whenever no D0 click was disclosed, so it cannot
    serve as the reference spread at small angles.
    """
    upsilon = report["upsilon"]
    _, p_ff = exact_d0_probabilities(core, upsilon)
    n_ff = rounds * check_fraction / 4.0
    sigma = 2.0 * math.sqrt(p_ff * (1.0 - p_ff) / n_ff)
    expected = math.cos(upsilon) if upsilon is not None else 1.0
    return _within(f"visibility at upsilon={upsilon!r}", report["visibility_estimate"],
                   expected, sigma, z)


def check_simulate(core, doc: dict, rounds: int, check_fraction: float) -> list[str]:
    """Counters sum to n; the D0 share and V-hat match core's probabilities."""
    failures = []
    counters = doc["session"]["counters"]
    total = sum(counters.values())
    if total != rounds:
        failures.append(f"counters sum to {total}, not {rounds}")
    z = family_z(2)
    p_d0, _ = exact_d0_probabilities(core, doc["session"]["config"]["upsilon"])
    n_d0 = sum(v for k, v in counters.items() if k.split(",")[2] == "D0")
    failures += _within("D0 fraction", n_d0 / rounds, p_d0,
                        math.sqrt(p_d0 * (1.0 - p_d0) / rounds), z)
    failures += check_visibility(core, doc["report"], rounds, check_fraction, z)
    return failures


def check_sweep(core, rows: list, grid, rounds: int, check_fraction: float) -> list[str]:
    """One row per grid angle, in order, each with V-hat near cos(upsilon)."""
    if [r["upsilon"] for r in rows] != list(grid):
        return [f"sweep rows {[r['upsilon'] for r in rows]} do not follow the grid"]
    z = family_z(len(rows))
    failures = []
    for row in rows:
        failures += check_visibility(core, row, rounds, check_fraction, z)
    return failures


def check_export(doc: dict, csv_text: str, csv_report: str) -> list[str]:
    """JSON and CSV rows agree; counters recomputed from the rows match."""
    rows = doc["session"]["rounds"]
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader)
    if header != CSV_HEADER:
        return [f"CSV header {header} is not {CSV_HEADER}"]
    csv_rows = list(reader)
    if len(csv_rows) != len(rows):
        return [f"JSON has {len(rows)} rounds, CSV has {len(csv_rows)}"]
    for i, (row, line) in enumerate(zip(rows, csv_rows)):
        expected = [str(row["round_id"]), row["alice"], row["bob"], row["outcome"],
                    row["announced"], row["eve_result"] or "",
                    str(row["sifted"]).lower(), str(row["disclosed"]).lower()]
        if line != expected or row["round_id"] != i:
            return [f"round {i}: JSON {expected} but CSV {line}"]
    failures = []
    recount = Counter(f"{r['alice']},{r['bob']},{r['outcome']}" for r in rows)
    counters = doc["session"]["counters"]
    if {k: recount.get(k, 0) for k in counters} != counters or set(recount) - set(counters):
        failures.append("counters recomputed from the rounds differ from the counters block")
    if json.loads(csv_report) != doc["report"]:
        failures.append("CSV-mode report differs from the JSON artifact's report")
    return failures


def pinned_digest(command: str, doc) -> str:
    """Digest of the part of an artifact that only a behaviour change may alter.

    For ``simulate`` it is the counters block.  A sweep artifact holds no
    counters, so it is each row's angle and its two count ratios,
    V-hat and epsilon-hat.
    """
    if command == "sweep":
        part = [[r["upsilon"], r["visibility_estimate"], r["epsilon_estimate"]] for r in doc]
    else:
        part = doc["session"]["counters"]
    data = json.dumps(part, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def verdict_mismatches(security, reports: list) -> int:
    """Reports whose ``secure`` flag differs from the sign of key_rate(cos upsilon)."""
    mismatches = 0
    for r in reports:
        v = math.cos(r["upsilon"]) if r["upsilon"] is not None else 1.0
        mismatches += r["secure"] != (security.key_rate(v) >= 0.0)
    return mismatches
