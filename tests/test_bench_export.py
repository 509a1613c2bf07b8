"""The BENCH_*.json exporter, run on hand-written perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_export.py"
spec = importlib.util.spec_from_file_location("bench_export", TOOL)
bench_export = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_export)

MACHINE = {"nproc": 2, "machine": "x86_64", "cpu_model": "Xeon", "l3_bytes": 1 << 20}
INFO = {"python": "3.11.7", "numpy": "2.4.6", "scqkd": "0.1.0", "ops": []}


def record(workload, seed, rate, commit="abc123", trace=0, rss=None):
    metrics = {"rounds_per_s": {"value": rate, "unit": "rounds/s"},
               "peak_rss_mb": {"value": 40.0 + seed if rss is None else rss, "unit": "MB"}}
    return {"workload": workload, "seed": seed, "seconds": 32.0, "trace": trace,
            "result": {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics},
            "machine": dict(MACHINE, git_commit=commit), "info": INFO}


def write(directory: Path, *records) -> Path:
    directory.mkdir()
    for r in records:
        name = f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
        (directory / name).write_text(json.dumps(r))
    return directory


def test_medians_commit_and_machine_are_copied(tmp_path):
    parent = write(tmp_path / "parent", record("sim", 0, 1.0, "p0"), record("sim", 1, 3.0, "p0"),
                   record("sim", 2, 2.0, "p0"), record("sim", 0, 99.0, "p0", trace=1))
    change = write(tmp_path / "change", record("sim", 0, 5.0, "c1"))
    out = tmp_path / "BENCH_1.json"
    assert bench_export.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    doc = json.loads(out.read_text())
    p = doc["sides"]["parent"]
    assert p["git_commit"] == "p0"
    assert p["machine"] == MACHINE
    assert p["build"] == {"python": "3.11.7", "numpy": "2.4.6", "scqkd": "0.1.0"}
    sim = p["workloads"]["sim"]
    assert [r["seed"] for r in sim["runs"]] == [0, 1, 2]  # the traced run is listed apart
    assert sim["traced"] == [{"seed": 0, "seconds": 32.0, "correct": True, "attempted": 4,
                              "failed": 0}]
    assert "traced" not in doc["sides"]["change"]["workloads"]["sim"]
    assert sim["median"] == {"rounds_per_s": 2.0, "peak_rss_mb": 41.0}
    assert sim["unit"] == {"rounds_per_s": "rounds/s", "peak_rss_mb": "MB"}
    assert doc["sides"]["change"]["workloads"]["sim"]["median"]["rounds_per_s"] == 5.0


@pytest.mark.parametrize("second", [record("sim", 1, 2.0, commit="other"),
                                    dict(record("sim", 1, 2.0), info=dict(INFO, numpy="1.0")),
                                    record("sim", 0, 2.0, commit="other", trace=1)])
def test_runs_of_two_builds_in_one_directory_are_refused(tmp_path, second):
    results = write(tmp_path / "r", record("sim", 0, 1.0), second)
    out = tmp_path / "BENCH.json"
    assert bench_export.main(["--out", str(out), f"x={results}"]) == 2
    assert not out.exists()


def test_empty_directory_and_bad_label_are_refused(tmp_path):
    empty = write(tmp_path / "empty")
    out = tmp_path / "BENCH.json"
    assert bench_export.main(["--out", str(out), f"x={empty}"]) == 2
    assert bench_export.main(["--out", str(out), str(empty)]) == 2
    assert not out.exists()


def test_parent_and_change_are_compared_pair_by_pair(tmp_path):
    # Seeds 1-5 on both sides, seed 6 on the parent alone; the change reads a
    # higher rate in 4 of 5 pairs and the same peak RSS in every pair.
    rates = {1: (10.0, 12.0), 2: (20.0, 19.0), 3: (30.0, 33.0), 4: (40.0, 44.0), 5: (50.0, 55.0)}
    parent = write(tmp_path / "parent", *(record("sim", s, p, "p0") for s, (p, _) in rates.items()),
                   record("sim", 6, 99.0, "p0"))
    change = write(tmp_path / "change", *(record("sim", s, c, "c1") for s, (_, c) in rates.items()),
                   record("other", 1, 1.0, "c1"))
    out = tmp_path / "BENCH.json"
    assert bench_export.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    comparison = json.loads(out.read_text())["comparison"]
    assert set(comparison) == {"sim"}  # a workload of one side alone is not compared
    rate = comparison["sim"]["rounds_per_s"]
    assert rate == {"better": "higher", "parent_median": 30.0, "parent_quartiles": [15.0, 45.0],
                    "parent_iqr": 30.0, "change_median": 33.0, "ratio": 1.1, "pairs": 5,
                    "change_won": 4, "resolved": False, "within_bound": True,
                    "unresolved": True}  # an IQR of 30 is past 0.25 of the median
    rss = comparison["sim"]["peak_rss_mb"]  # 40 + seed on both sides: no pair is won
    assert (rss["better"], rss["parent_median"], rss["change_won"]) == ("lower", 43.0, 0)
    assert (rss["resolved"], rss["within_bound"], rss["unresolved"]) == (False, True, False)
    assert set(comparison["sim"]) == {"rounds_per_s", "peak_rss_mb"}  # end-to-end metrics only


def test_other_labels_get_no_comparison(tmp_path):
    before = write(tmp_path / "before", record("sim", 1, 1.0), record("sim", 2, 2.0))
    after = write(tmp_path / "after", record("sim", 1, 3.0), record("sim", 2, 4.0))
    out = tmp_path / "BENCH.json"
    assert bench_export.main(["--out", str(out), f"parent={before}", f"after={after}"]) == 0
    assert "comparison" not in json.loads(out.read_text())


@pytest.mark.parametrize("gain, won, resolved", [
    (20.0, 9, True),  # 9 of 10 pairs and a median gap of 19 against an IQR of 5.5
    (20.0, 8, False),  # too few pairs won, though the medians are far apart
    (1.0, 10, False),  # every pair won, but the gap of 1 is inside the parent's IQR
])
def test_the_pairwise_rule_needs_the_pairs_and_the_median_gap(tmp_path, gain, won, resolved):
    # Seeds 1-10: the parent's rate is 100 + seed (quartiles 102.75 and
    # 108.25) and the change's is `gain` higher, but lower in the pairs it
    # loses.  The change's peak RSS is 20% above the parent's in every pair,
    # past the 0.1 bound; its rate is far inside the 0.25 bound.
    parent = write(tmp_path / "parent",
                   *(record("sim", s, 100.0 + s, "p0", rss=50.0) for s in range(1, 11)))
    change = write(tmp_path / "change", *(
        record("sim", s, 100.0 + s + (gain if s <= won else -1.0), "c1", rss=60.0)
        for s in range(1, 11)))
    out = tmp_path / "BENCH.json"
    assert bench_export.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    comparison = json.loads(out.read_text())["comparison"]["sim"]
    rate = comparison["rounds_per_s"]
    assert (rate["parent_iqr"], rate["change_won"]) == (5.5, won)
    assert (rate["resolved"], rate["within_bound"]) == (resolved, True)
    rss = comparison["peak_rss_mb"]
    assert (rss["parent_iqr"], rss["change_won"]) == (0.0, 0)
    assert (rss["resolved"], rss["within_bound"]) == (False, False)


def test_a_change_worse_by_its_bound_is_within_it(tmp_path):
    # Rates exactly 25% below the parent's (the 0.25 bound) and 10% higher
    # peak RSS (the 0.1 bound) are still within them; a little more is not.
    def compared(rate_factor, rss):
        name = f"{rate_factor}-{rss}"
        parent = write(tmp_path / f"parent-{name}",
                       *(record("sim", s, 8.0, "p0", rss=50.0) for s in (1, 2, 3)))
        change = write(tmp_path / f"change-{name}",
                       *(record("sim", s, 8.0 * rate_factor, "c1", rss=rss) for s in (1, 2, 3)))
        out = tmp_path / f"{name}.json"
        assert bench_export.main(["--out", str(out), f"parent={parent}",
                                  f"change={change}"]) == 0
        comparison = json.loads(out.read_text())["comparison"]["sim"]
        return [comparison[m]["within_bound"] for m in ("rounds_per_s", "peak_rss_mb")]

    assert compared(0.75, 55.0) == [True, True]
    assert compared(0.74, 55.5) == [False, False]


@pytest.mark.parametrize("step, rate_shift, rss_shift, unresolved", [
    (10.0, 1.0, 0.0, True),  # spread past both bounds, and the change's runs mix with the parent's
    (10.0, 200.0, -30.0, False),  # as wide, but every change run reads better than every parent run
    (1.0, 1.0, 0.0, False),  # mixed runs, but the spread lies inside both bounds
])
def test_a_spread_wider_than_its_bound_is_unresolved(tmp_path, step, rate_shift, rss_shift,
                                                     unresolved):
    # Seeds 1-10: the parent's rate is 100 + step * seed and its peak RSS
    # 50 + step * seed / 5.  At step 10 their IQRs, 55 and 11, pass 0.25 of
    # the rate's median (38.75) and 0.1 of the RSS's (6.1); at step 1 they
    # do not.  Each change run is its parent run shifted by a fixed amount.
    parent = write(tmp_path / "parent", *(
        record("sim", s, 100.0 + step * s, "p0", rss=50.0 + step * s / 5) for s in range(1, 11)))
    change = write(tmp_path / "change", *(
        record("sim", s, 100.0 + step * s + rate_shift, "c1", rss=50.0 + step * s / 5 + rss_shift)
        for s in range(1, 11)))
    out = tmp_path / "BENCH.json"
    assert bench_export.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    comparison = json.loads(out.read_text())["comparison"]["sim"]
    assert [comparison[m]["unresolved"] for m in ("rounds_per_s", "peak_rss_mb")] == [
        unresolved, unresolved]
