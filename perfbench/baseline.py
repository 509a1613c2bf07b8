"""Print the layer baseline table of ROADMAP.md's "Recent" section.

Usage (from the root of a checkout): python3 perfbench/baseline.py

It times the same layer probes as a traced benchmark run, on the
simulate_large session (pi/6, seed 0) at 10^6 and 10^7 rounds, and prints
a Markdown table.  Peak RSS at 10^7 rounds is the simulate_large run's
``peak_rss_mb``.
"""

from __future__ import annotations

import os
from pathlib import Path

import child
import probes
import tracing
from workloads import WORKLOADS

SIZES = (10**6, 10**7)
ROWS = (
    ("`run_session`, 1 worker", "protocol.run_session_s"),
    ("`run_session`, {nproc} workers", "protocol.run_session_parallel_s"),
    ("Philox uniforms alone", "randomness.round_stream_s"),
    ("`sift`", "protocol.sift_s"),
    ("`estimate_from_session`", "security.estimate_s"),
    ("counters-only `to_json`", "protocol.counters_json_s"),
)


def _fmt(seconds: float) -> str:
    return f"{seconds * 1e3:.0f} ms" if seconds < 1.0 else f"{seconds:.2f} s"


def main() -> None:
    child.import_scqkd(Path(__file__).resolve().parents[1])
    nproc = len(os.sched_getaffinity(0))
    columns = [probes.layer_metrics(tracing.Tracer(), WORKLOADS["simulate_large"].scaled(n),
                                    seed=0, workers=nproc) for n in SIZES]
    print("| Operation | " + " | ".join(f"10^{len(str(n)) - 1} rounds" for n in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    for label, name in ROWS:
        cells = " | ".join(_fmt(m[name]) for m in columns)
        print(f"| {label.format(nproc=nproc)} | {cells} |")
    last = columns[-1]
    per_1e5 = 100_000 / WORKLOADS["simulate_large"].row_rounds
    print(f"\n`to_json(include_rounds=True)`: {last['protocol.rounds_json_s'] * per_1e5:.2f} s "
          f"and `to_csv`: {last['protocol.csv_s'] * per_1e5:.2f} s per 10^5 rounds; "
          f"`SessionLog.round`: {last['protocol.round_access_us']:.1f} us per call.")


if __name__ == "__main__":
    main()
