"""The benchmark's tracer and fault injections still find what they patch.

``perfbench/tracing.py`` replaces public functions of each layer by name
and restores them afterwards.  A rename or removal of one of them makes
every traced benchmark run raise, so one test enters the tracer, read
only, around a small ``sweep`` and a small ``simulate --include-rounds``.
``cli.main`` builds its parser once per process, so another test enters
the tracer after untraced calls, as the benchmark's runs do, and checks
that the commands it patches are still the ones called.

``perfbench/tests`` injects two faults into a report-only ``simulate``:
a ``SessionLog.counters`` property that miscounts a cell, and a
``cli.run_session`` wrapper with the signature ``(config, workers=1)``
that edits the log's columns in place.  The other test checks that each
still changes the bytes that command writes, and those of the per-round
exports that the fault reaches.
"""

import importlib.util
from pathlib import Path

import pytest

import scqkd
import scqkd.cli as cli
from scqkd import protocol

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_and_export_run_and_record_their_spans(tmp_path):
    tracer = load_tracing().Tracer()
    with tracer.installed(scqkd):
        assert cli.main(["sweep", "--rounds", "8000", "--grid", "0,0.5",
                         "--out", str(tmp_path / "sweep.json")]) == 0
        assert cli.main(["simulate", "--rounds", "8000", "--upsilon", "0.5",
                         "--include-rounds", "--out", str(tmp_path / "rounds.json")]) == 0
    names = {span["name"] for span in tracer.spans}
    assert {"cli.sweep", "security.sweep_reports", "randomness.random",
            "cli.simulate", "protocol.run_session"} <= names
    assert all(span["end"] is not None for span in tracer.spans)


def test_commands_are_traced_after_untraced_calls(tmp_path):
    # A parser that kept the command functions it was built with would call
    # the untraced ones here, and the benchmark's ``cli.command_s`` would
    # be the median of no span.
    def sweep_and_simulate():
        assert cli.main(["sweep", "--rounds", "4000", "--grid", "0,0.5",
                         "--out", str(tmp_path / "sweep.json")]) == 0
        assert cli.main(["simulate", "--rounds", "4000", "--upsilon", "0.5",
                         "--out", str(tmp_path / "simulate.json")]) == 0

    sweep_and_simulate()
    tracer = load_tracing().Tracer()
    with tracer.installed(scqkd):
        sweep_and_simulate()
    assert len(tracer.durations("cli.sweep")) == len(tracer.durations("cli.simulate")) == 1
    assert {"security.sweep_reports", "protocol.run_session"} <= {s["name"] for s in tracer.spans}
    sweep_and_simulate()  # restored: no new span
    assert len(tracer.durations("cli.sweep")) == len(tracer.durations("cli.simulate")) == 1


def tampered_counters(monkeypatch):
    counters = protocol.SessionLog.counters

    def tampered(log):
        counts = counters.fget(log)
        counts[next(iter(counts))] += 1
        return counts

    monkeypatch.setattr(protocol.SessionLog, "counters", property(tampered))


def skewed_run_session(monkeypatch):
    run_session = cli.run_session

    def skewed(config, workers=1):
        log = run_session(config, workers=workers)
        if workers > 1:
            log.outcome[0] = (log.outcome[0] + 1) % 4
        return log

    monkeypatch.setattr(cli, "run_session", skewed)


@pytest.mark.parametrize("inject, argv", [
    (tampered_counters, ()),
    (skewed_run_session, ()),
    (tampered_counters, ("--include-rounds",)),
    (skewed_run_session, ("--include-rounds",)),
    (skewed_run_session, ("--format", "csv")),
], ids=["tampered_counters", "skewed_run_session", "tampered_counters-include_rounds",
        "skewed_run_session-include_rounds", "skewed_run_session-csv"])
def test_each_fault_injection_changes_the_simulate_bytes(tmp_path, monkeypatch, capsys, inject,
                                                         argv):
    def simulate(name: str) -> tuple[bytes, str]:
        out = tmp_path / name
        assert cli.main(["simulate", "--rounds", "20000", "--upsilon", "0.5", "--seed", "1",
                         "--workers", "2", "--out", str(out), *argv]) == 0
        return out.read_bytes(), capsys.readouterr().out

    clean = simulate("clean")
    with monkeypatch.context() as patch:
        inject(patch)
        faulty = simulate("faulty")
    assert faulty[0] != clean[0]
    if "csv" in argv:
        assert faulty[1] != clean[1]  # the report, which CSV writes to stdout
    assert simulate("restored") == clean
