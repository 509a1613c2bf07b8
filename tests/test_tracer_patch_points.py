"""The benchmark's tracer still finds and wraps every public call it patches.

``perfbench/tracing.py`` replaces public functions of each layer by name
and restores them afterwards.  A rename or removal of one of them makes
every traced benchmark run raise, so this test enters the tracer, read
only, around a small ``sweep`` and a small ``simulate --include-rounds``.
"""

import importlib.util
from pathlib import Path

import scqkd
import scqkd.cli as cli

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
