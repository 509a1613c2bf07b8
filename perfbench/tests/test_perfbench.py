"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCQKD = child.import_scqkd(ROOT)
TINY_ROUNDS = 20_000
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, name: str, trace: bool) -> dict:
    return child.run(SCQKD, WORKLOADS[name].scaled(TINY_ROUNDS), seed=1, seconds=0,
                     trace=trace, workdir=tmp_path, parallel=2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks_and_measures_every_metric(tmp_path, name):
    out = tiny_run(tmp_path, name, trace=True)
    assert out["failed"] == 0, out["failures"]
    assert out["attempted"] > 0
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]} - {"setup_s"}
    assert declared <= set(out["metrics"])
    assert {s["name"] for s in out["spans"]} >= {"cli." + WORKLOADS[name].command,
                                                 "protocol.run_session", "randomness.random"}


def test_tampered_counter_is_a_failed_op(tmp_path, monkeypatch):
    counters = SCQKD.protocol.SessionLog.counters

    def tampered(log):
        counts = counters.fget(log)
        counts[next(iter(counts))] += 1
        return counts

    monkeypatch.setattr(SCQKD.protocol.SessionLog, "counters", property(tampered))
    out = tiny_run(tmp_path, "simulate_large", trace=False)
    assert out["failed"] > 0
    assert any("counters sum to" in f for f in out["failures"])


def test_worker_dependent_artifact_is_a_failed_op(tmp_path, monkeypatch):
    run_session = SCQKD.cli.run_session

    def skewed(config, workers=1):
        log = run_session(config, workers=workers)
        if workers > 1:
            log.outcome[0] = (log.outcome[0] + 1) % 4
        return log

    monkeypatch.setattr(SCQKD.cli, "run_session", skewed)
    out = tiny_run(tmp_path, "simulate_large", trace=False)
    assert out["failed"] > 0
    assert any("other bytes" in f for f in out["failures"])


def test_export_check_catches_a_csv_row_that_differs_from_json():
    doc = {"session": {"rounds": [{"round_id": 0, "alice": "Absorb", "bob": "Reflect",
                                   "outcome": "D0", "announced": "D0", "eve_result": None,
                                   "sifted": True, "disclosed": False}],
                       "counters": {"Absorb,Reflect,D0": 1}},
           "report": {"secure": True}}
    header = ",".join(checks.CSV_HEADER) + "\n"
    assert checks.check_export(doc, header + "0,Absorb,Reflect,D0,D0,,true,false\n",
                               '{"secure":true}') == []
    assert checks.check_export(doc, header + "0,Absorb,Reflect,D1,NotD0,,false,false\n",
                               '{"secure":true}')


def test_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_runner_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep_grid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
