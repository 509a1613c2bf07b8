"""Per-layer probes: public calls into each layer, timed one by one.

The traced run calls each layer directly on the workload's probe session
(``rounds`` rounds at ``probe_upsilon``), so every layer metric exists on
every workload.  Each timing is a span of the shared tracer and each
metric is the median of its repetitions.
"""

from __future__ import annotations

import dataclasses
import statistics
import tracemalloc

import numpy as np

from workloads import CHECK_FRACTION

REPEATS = 3
ROUND_ACCESSES = 2000


def _median_span(tracer, name: str, fn, repeats: int = REPEATS):
    """Call ``fn`` ``repeats`` times, each in a span; return (median seconds, last result)."""
    result = None
    for _ in range(repeats):
        with tracer.span(name):
            result = fn()
    return statistics.median(tracer.durations(name, op="probe")), result


def layer_metrics(tracer, workload, seed: int, workers: int) -> dict:
    """Time every layer on the probe session and count what it produced."""
    from scqkd import core, protocol, randomness, security

    tracer.op = "probe"
    n = workload.rounds
    upsilon = workload.probe_upsilon
    config = protocol.SessionConfig(n_rounds=n, upsilon=upsilon, seed=seed,
                                    check_fraction=CHECK_FRACTION)
    m = {}

    m["randomness.round_stream_s"], _ = _median_span(
        tracer, "randomness.round_stream",
        lambda: randomness.philox_stream(seed, randomness.ROUND_STREAM).random((n, 4)))
    m["randomness.disclose_stream_s"], _ = _median_span(
        tracer, "randomness.disclose_stream",
        lambda: randomness.philox_stream(seed, randomness.DISCLOSE_STREAM).random(n))

    def tables():
        povm = core.build_povm(upsilon)
        for a in core.Choice:
            for b in core.Choice:
                probe = core.terminal_distribution(a, b, upsilon).probe(core.Outcome.D0)
                if probe is not None:
                    povm.outcome_probabilities(probe)
    m["core.tables_s"], _ = _median_span(tracer, "core.tables", tables, repeats=21)

    m["protocol.run_session_s"], log = _median_span(
        tracer, "protocol.run_session", lambda: protocol.run_session(config))
    m["protocol.run_session_parallel_s"], _ = _median_span(
        tracer, "protocol.run_session_parallel",
        lambda: protocol.run_session(config, workers=workers))
    unattacked, _ = _median_span(
        tracer, "protocol.run_session_unattacked",
        lambda: protocol.run_session(dataclasses.replace(config, upsilon=None)))
    m["protocol.mapping_s"] = (m["protocol.run_session_s"] - m["randomness.round_stream_s"]
                               - m["randomness.disclose_stream_s"])
    m["eve.mapping_s"] = m["protocol.run_session_s"] - unattacked

    tracemalloc.start()
    try:
        protocol.run_session(config)
        m["protocol.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    m["protocol.sift_s"], key = _median_span(tracer, "protocol.sift", lambda: protocol.sift(log))
    m["protocol.counters_json_s"], _ = _median_span(
        tracer, "protocol.counters_json", lambda: log.to_json())
    m["security.estimate_s"], _ = _median_span(
        tracer, "security.estimate", lambda: security.estimate_from_session(log))

    indices = np.random.default_rng(seed).integers(0, n, ROUND_ACCESSES).tolist()

    def access():
        for i in indices:
            log.round(i)
    seconds, _ = _median_span(tracer, "protocol.round_access", access)
    m["protocol.round_access_us"] = seconds / ROUND_ACCESSES * 1e6

    row_log = protocol.run_session(dataclasses.replace(config, n_rounds=workload.row_rounds))
    row_repeats = 1 if workload.row_rounds >= 100_000 else REPEATS
    m["protocol.rounds_json_s"], _ = _median_span(
        tracer, "protocol.rounds_json", lambda: row_log.to_json(include_rounds=True),
        row_repeats)
    m["protocol.csv_s"], _ = _median_span(tracer, "protocol.csv", row_log.to_csv, row_repeats)

    m["protocol.rounds"] = n
    m["protocol.sifted_bits"] = len(key)
    m["protocol.disclosed"] = int(log.disclosed.sum())
    m["eve.conclusive"] = int(np.sum(key.eve_guesses >= 0))
    m["eve.guess_errors"] = key.eve_guess_errors()
    return m
