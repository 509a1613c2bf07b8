"""Run one workload in a fresh interpreter and print its measurements as JSON.

Usage: python3 perfbench/child.py '{"root": ..., "results": ..., "workload": ...,
"seed": ..., "seconds": ..., "trace": ...}'

It imports scqkd from ``<root>/src`` and calls ``scqkd.cli.main`` in
process, closed loop, alternating one worker with ``nproc`` workers until
the time is spent.  Artifacts go to a scratch directory under the results
directory, which is removed at exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

import checks
import probes
import tracing
from workloads import CHECK_FRACTION, DEFAULT_SEED, UNIFORM_BYTES_PER_ROUND, WORKLOADS

WARMUP_ROUNDS = 20_000


def import_scqkd(root: Path):
    """Import scqkd from the checkout's source tree, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import scqkd
    import scqkd.cli

    if src not in Path(scqkd.__file__).resolve().parents:
        raise ImportError(f"scqkd was imported from {scqkd.__file__}, not from {src}")
    return scqkd


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Makes the workload's CLI calls and checks every artifact against the first."""

    def __init__(self, scqkd, workload, seed: int, workdir: Path) -> None:
        self.scqkd = scqkd
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[dict] = []
        self.refs: dict[int, dict] = {}

    def op(self, workers: int, tracer=None) -> None:
        """One operation: each of the workload's CLI calls, in order."""
        record = {"workers": workers, "traced": tracer is not None, "seconds": 0.0,
                  "calls": []}
        if tracer is not None:
            tracer.op = len(self.ops)
        for index, call in enumerate(self.workload.calls):
            out = self.workdir / f"call{index}.out"
            argv = self.workload.argv(call, self.seed, workers, str(out))
            stdout = io.StringIO()
            traced = tracer.installed(self.scqkd) if tracer else contextlib.nullcontext()
            with traced, contextlib.redirect_stdout(stdout):
                start = time.perf_counter()
                rc = self.scqkd.cli.main(argv)
                record["seconds"] += time.perf_counter() - start
            record["calls"].append(self._check_call(index, rc, out, stdout.getvalue(), workers))
        self.ops.append(record)

    def _check_call(self, index: int, rc: int, out: Path, stdout: str, workers: int) -> dict:
        if rc != 0:
            return {"rc": rc, "failures": [f"call {index} exited with code {rc}"]}
        result = {"rc": rc, "sha256": file_sha256(out), "bytes": out.stat().st_size,
                  "stdout": stdout, "failures": []}
        ref = self.refs.get(index)
        if ref is None:
            ref_path = self.workdir / f"ref{index}.out"
            out.replace(ref_path)
            self.refs[index] = dict(result, path=ref_path)
        elif (result["sha256"], stdout) != (ref["sha256"], ref["stdout"]):
            result["failures"].append(
                f"call {index} at workers={workers} wrote other bytes than the first call")
        return result

    def calls(self) -> list[dict]:
        return [c for op in self.ops for c in op["calls"]]

    def validate(self, core) -> tuple[list[str], str | None, list[dict]]:
        """Check the reference artifacts' content.

        Returns the failures, the pinned digest and the security reports.
        Every call that wrote the reference bytes fails with them.
        """
        w = self.workload
        if 0 not in self.refs:
            return [], None, []
        doc = json.loads(self.refs[0]["path"].read_text())
        if w.command == "sweep":
            failures = checks.check_sweep(core, doc, w.grid, w.rounds, CHECK_FRACTION)
            reports = doc
        else:
            failures = checks.check_simulate(core, doc, w.rounds, CHECK_FRACTION)
            reports = [doc["report"]]
        if 1 in self.refs:
            failures += checks.check_export(doc, self.refs[1]["path"].read_text(),
                                            self.refs[1]["stdout"])
        digest = checks.pinned_digest(w.command, doc)
        if self.seed == DEFAULT_SEED and w.counters_sha256 and digest != w.counters_sha256:
            failures.append(f"pinned digest {digest} is not {w.counters_sha256}")
        if failures:
            for call in self.calls():
                if not call["failures"]:
                    call["failures"] = list(failures)
        return failures, digest, reports


def _median_rate(ops: list[dict], workers: int, traced: bool, rounds: int) -> float:
    return statistics.median(rounds / op["seconds"] for op in ops
                             if op["workers"] == workers and op["traced"] == traced)


def run(scqkd, workload, seed: int, seconds: float, trace: bool, workdir: Path,
        parallel: int) -> dict:
    """Warm up, run the closed loop for ``seconds``, check, and measure layers if traced."""
    from scqkd import core, security

    warm = Runner(scqkd, workload.scaled(min(WARMUP_ROUNDS, workload.rounds)), seed,
                  workdir / "warmup")
    for workers in (1, parallel):
        warm.op(workers)

    runner = Runner(scqkd, workload, seed, workdir / "timed")
    tracer = tracing.Tracer()
    variants = [(1, False), (1, True), (parallel, False), (parallel, True)]
    if not trace:
        variants = [v for v in variants if not v[1]]
    last: dict = {}
    start = time.perf_counter()
    while not runner.ops or time.perf_counter() - start + sum(last.values()) <= seconds:
        for workers, traced in variants:
            began = time.perf_counter()
            runner.op(workers, tracer if traced else None)
            last[(workers, traced)] = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    content_failures, digest, reports = runner.validate(core)
    rounds = workload.rounds_per_op
    metrics = {
        "rounds_per_s": _median_rate(runner.ops, 1, False, rounds),
        "rounds_per_s_parallel": _median_rate(runner.ops, parallel, False, rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    calls = warm.calls() + runner.calls()
    attempted = len(calls)
    failed = sum(bool(c["failures"]) for c in calls)
    failures = sorted({f for c in calls for f in c["failures"]})

    if trace:
        layer = probes.layer_metrics(tracer, workload, seed, parallel)
        attempted += 1
        if layer["eve.guess_errors"] != 0:
            failed += 1
            failures.append(f"eve made {layer['eve.guess_errors']} wrong conclusive guesses")
        metrics.update(layer)
        metrics.update(_cli_metrics(tracer, runner.ops))
        metrics["randomness.bytes_computed"] = UNIFORM_BYTES_PER_ROUND * rounds
        metrics["protocol.output_bytes"] = sum(r["bytes"] for r in runner.refs.values())
        metrics["security.verdict_mismatches"] = checks.verdict_mismatches(security, reports)
        metrics["failed_ops_fraction"] = failed / attempted

    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "spans": tracer.spans,
        "info": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scqkd": scqkd.__version__,
            "rounds_per_op": rounds,
            "working_set_bytes_computed": workload.working_set_bytes,
            "pinned_digest": digest,
            "pinned_digest_expected": workload.counters_sha256 if seed == DEFAULT_SEED else None,
            "artifact_sha256": [runner.refs[i]["sha256"] for i in sorted(runner.refs)],
            "artifact_sha256_recorded": list(workload.artifact_sha256) if seed == DEFAULT_SEED
            else None,
            "content_failures": content_failures,
            "ops": [{"workers": op["workers"], "traced": op["traced"],
                     "seconds": op["seconds"]} for op in runner.ops],
        },
    }


def _cli_metrics(tracer, ops: list[dict]) -> dict:
    """CLI wall time and self time per one-worker op, and the cost of tracing itself."""
    command, overhead = [], []
    for index, op in enumerate(ops):
        if not op["traced"] or op["workers"] != 1:
            continue
        cli_spans = [i for i, s in enumerate(tracer.spans)
                     if s["op"] == index and s["name"].startswith("cli.")]
        command.append(sum(tracer.spans[i]["end"] - tracer.spans[i]["start"]
                           for i in cli_spans))
        overhead.append(sum(tracer.self_time(i) for i in cli_spans))
    traced = statistics.median(op["seconds"] for op in ops if op["traced"] and op["workers"] == 1)
    plain = statistics.median(op["seconds"] for op in ops
                              if not op["traced"] and op["workers"] == 1)
    return {
        "cli.command_s": statistics.median(command),
        "cli.overhead_s": statistics.median(overhead),
        "trace.overhead_frac": traced / plain - 1.0,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    root, results = Path(spec["root"]), Path(spec["results"])
    scqkd = import_scqkd(root)
    workload = WORKLOADS[spec["workload"]]
    workdir = results / f"tmp-{os.getpid()}"
    try:
        out = run(scqkd, workload, spec["seed"], spec["seconds"], spec["trace"], workdir,
                  len(os.sched_getaffinity(0)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = out.pop("spans")
    if spec["trace"]:
        path = results / f"spans-{workload.name}-seed{spec['seed']}.json"
        path.write_text(json.dumps(spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
