"""scqkd benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload simulate_large --seed 0 --seconds 32 --trace 0

It times set-up in fresh interpreters, then runs the workload in a fresh
child interpreter that calls ``scqkd.cli.main`` in process.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The full record, with machine and build
information, goes to ``perfbench/results/``; the last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 170.0
SETUP_RUNS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import scqkd; from scqkd import core; "
    "core.terminal_distribution(core.Choice.REFLECT, core.Choice.REFLECT, 0.5); "
    "core.build_povm(0.5)"
)


def setup_seconds() -> float:
    """Interpreter start through ``import scqkd`` and the first core tables."""
    start = time.perf_counter()
    # No timeout: with one, subprocess polls for the exit in steps of up to
    # 50 ms, which would quantize every sample.
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")], check=True)
    return time.perf_counter() - start


def machine_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "cpu_model": None, "l3_bytes": None, "git_commit": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            size = fh.read().strip()
        info["l3_bytes"] = int(size.rstrip("K")) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        info["git_commit"] = head.stdout.strip() or None
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scqkd" / "__init__.py").is_file():
        print(f"no scqkd source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    seed = args.seed % 2**64
    RESULTS.mkdir(exist_ok=True)

    setup = [] if args.trace else [setup_seconds() for _ in range(SETUP_RUNS)]
    spec = {"root": str(ROOT), "results": str(RESULTS), "workload": args.workload,
            "seed": seed, "seconds": args.seconds, "trace": args.trace}
    child = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                           stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        print(f"workload run exited with code {child.returncode}", file=sys.stderr)
        return 1
    out = json.loads(child.stdout.splitlines()[-1])
    measured = dict(out["metrics"])
    if setup:
        measured["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    machine = machine_info()
    info = out["info"]
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "result": result, "failures": out["failures"], "all_metrics": measured,
        "setup_samples_s": setup, "machine": machine, "info": info,
        "working_set_vs_l3": (info["working_set_bytes_computed"] / machine["l3_bytes"]
                              if machine["l3_bytes"] else None),
    }
    (RESULTS / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']} "
          f"l3_bytes={machine['l3_bytes']} python={info['python']} numpy={info['numpy']} "
          f"scqkd={info['scqkd']} commit={machine['git_commit']}")
    print(f"working set (computed): {info['working_set_bytes_computed']} B per session, "
          f"{record['working_set_vs_l3']} x L3")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if "failed_ops_fraction" not in result["metrics"]:
        print(f"failed_ops_fraction {out['failed'] / out['attempted']:.6g} ratio")
    for failure in out["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
