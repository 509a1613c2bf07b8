"""Collect perfbench results into one BENCH_<n>.json file at the repository root.

Usage (from the root of a checkout):

    python3 tools/bench_export.py --out BENCH_6.json parent=DIR change=DIR

Each DIR is a ``perfbench/results`` directory; its label names it in the
output.  Every run in one directory must come from the same git commit
and machine.  For each label and workload the file keeps the commit, the
machine and build info, each end-to-end run's (``--trace 0``) metrics
(each already a median over the run's operations) and the median of
every metric over those runs.  Traced runs (``--trace 1``) are listed
apart, with only their seed, length, correctness and operation counts.
When the labels ``parent`` and ``change`` are both given, ``comparison``
pairs their runs by seed.  Per workload and end-to-end metric of
``BENCHMARK.json`` it gives, over those pairs, the parent's median and
quartiles (``statistics.quantiles``), the change's median, their ratio
(change / parent) and the pairs the change won: those where it reads
better in the metric's ``better`` direction.  It also applies the pairwise
rule: a change is ``resolved`` when it won at least 9 in 10 of the pairs
and its median is better than the parent's by more than the parent's
interquartile range (``parent_iqr``), and ``within_bound`` when its median
is not worse than the parent's by more than the metric's relative
``bound``.  A metric is ``unresolved`` when the parent's own runs spread
wider than the bound (``parent_iqr`` above ``bound`` times the parent's
median) and not every change run reads better than every parent run: its
pairs can then show neither a regression nor its absence.  It changes no
workload, metric or bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _load_runs(results: Path, trace: int) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(results.glob(f"*-trace{trace}.json"))]


def _only(values: list, what: str, results: Path):
    distinct = {json.dumps(v, sort_keys=True) for v in values}
    if len(distinct) != 1:
        raise ValueError(f"{results}: runs disagree on {what}: {sorted(distinct)}")
    return values[0]


def side(results: Path) -> dict:
    """One label's entry: commit, machine, build, and per-workload runs and medians."""
    runs = _load_runs(results, trace=0)
    if not runs:
        raise ValueError(f"{results}: no end-to-end (--trace 0) results")
    traced = _load_runs(results, trace=1)
    every = runs + traced
    machine = [{k: v for k, v in r["machine"].items() if k != "git_commit"} for r in every]
    build = [{k: r["info"][k] for k in ("python", "numpy", "scqkd")} for r in every]
    workloads: dict[str, dict] = {}
    for run in sorted(runs, key=lambda r: (r["workload"], r["seed"])):
        entry = workloads.setdefault(run["workload"], {"runs": [], "median": {}, "unit": {}})
        metrics = run["result"]["metrics"]
        entry["runs"].append({"seed": run["seed"], "seconds": run["seconds"],
                              "correct": run["result"]["correct"],
                              **{name: m["value"] for name, m in metrics.items()}})
        entry["unit"].update({name: m["unit"] for name, m in metrics.items()})
    for run in sorted(traced, key=lambda r: (r["workload"], r["seed"])):
        entry = workloads.setdefault(run["workload"], {"runs": [], "median": {}, "unit": {}})
        entry.setdefault("traced", []).append(
            {"seed": run["seed"], "seconds": run["seconds"],
             **{k: run["result"][k] for k in ("correct", "attempted", "failed")}})
    for entry in workloads.values():
        for name in entry["unit"]:
            entry["median"][name] = statistics.median(r[name] for r in entry["runs"])
    return {
        "git_commit": _only([r["machine"]["git_commit"] for r in every], "git commit", results),
        "machine": _only(machine, "machine", results),
        "build": _only(build, "build", results),
        "workloads": workloads,
    }


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric, the parent's spread and the change's paired wins."""
    comparison: dict[str, dict] = {}
    for workload, entry in sorted(parent["workloads"].items()):
        other = change["workloads"].get(workload)
        if other is None:
            continue
        by_seed = {r["seed"]: r for r in other["runs"]}
        pairs = [(r, by_seed[r["seed"]]) for r in entry["runs"] if r["seed"] in by_seed]
        metrics = {}
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            paired = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
            if len(paired) < 2:
                continue
            before, changed = ([p for p, _ in paired], [c for _, c in paired])
            q1, median, q3 = statistics.quantiles(before, n=4)
            after = statistics.median(changed)
            won = sum(c > p if higher else c < p for p, c in paired)
            apart = min(changed) > max(before) if higher else max(changed) < min(before)
            gain = after - median if higher else median - after
            metrics[name] = {
                "better": metric["better"],
                "parent_median": median,
                "parent_quartiles": [q1, q3],
                "parent_iqr": q3 - q1,
                "change_median": after,
                "ratio": after / median,
                "pairs": len(paired),
                "change_won": won,
                "resolved": 10 * won >= 9 * len(paired) and gain > q3 - q1,
                "within_bound": gain >= -metric["bound"] * median,
                "unresolved": q3 - q1 > metric["bound"] * median and not apart,
            }
        comparison[workload] = metrics
    return comparison


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_6.json")
    parser.add_argument("sides", nargs="+", metavar="LABEL=DIR",
                        help="a label and the perfbench results directory it names")
    args = parser.parse_args(argv)
    doc = {"source": "perfbench/run.py: --trace 0 (runs), --trace 1 (traced)", "sides": {}}
    try:
        for spec in args.sides:
            label, sep, results = spec.partition("=")
            if not sep or not label or label in doc["sides"]:
                raise ValueError(f"expected a new LABEL=DIR, got {spec!r}")
            doc["sides"][label] = side(Path(results))
        if {"parent", "change"} <= doc["sides"].keys():
            end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
            doc["comparison"] = compare(doc["sides"]["parent"], doc["sides"]["change"],
                                        end_to_end)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_export: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
