"""The benchmark's workloads: which CLI calls one operation makes.

Each workload is a fixed set of `scqkd` command lines.  The benchmark seed
becomes the session seed and is the only input that varies between runs,
so one seed always produces the same artifacts.  Pinned digests hold at
the default seed (0); they are the part of each artifact that a pure
speed-up must leave unchanged.  Why each workload is there is stated in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

DEFAULT_SEED = 0
CHECK_FRACTION = 0.1

#: Bytes of Philox uniforms drawn per round: four doubles on the round
#: stream plus one double on the disclosure stream.
UNIFORM_BYTES_PER_ROUND = 40
#: Stated working set of a session: the uniforms plus the byte-wide
#: choice, outcome, Eve and mask columns and their temporaries.
WORKING_SET_BYTES_PER_ROUND = 50

#: Uniform grid of 33 probe angles on [0, pi/2]; k * (pi/2) / 32 is exact
#: at both ends, so the last angle passes the CLI's range check.
SWEEP_GRID = tuple(k * (math.pi / 2) / 32 for k in range(33))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``calls`` lists the extra CLI arguments of each call that one operation
    makes; every call also gets the rounds, seed, check fraction, workers
    and output path.  ``probe_upsilon`` is the angle of the session that
    the traced run times layer by layer at ``rounds`` rounds;
    ``row_rounds`` is the size of the session whose per-round JSON and CSV
    it times.
    """

    name: str
    command: str
    rounds: int
    calls: tuple[tuple[str, ...], ...]
    probe_upsilon: float
    row_rounds: int
    upsilon: float | None = None
    grid: tuple[float, ...] | None = None
    counters_sha256: str | None = None
    artifact_sha256: tuple[str, ...] = ()

    @property
    def rounds_per_op(self) -> int:
        """Rounds simulated by one operation, summed over its CLI calls."""
        sessions_per_call = len(self.grid) if self.grid is not None else 1
        return self.rounds * sessions_per_call * len(self.calls)

    @property
    def working_set_bytes(self) -> int:
        """Stated (computed, not measured) working set of one session."""
        return WORKING_SET_BYTES_PER_ROUND * self.rounds

    def argv(self, call: tuple[str, ...], seed: int, workers: int, out: str) -> list[str]:
        argv = [self.command, "--rounds", str(self.rounds), "--seed", str(seed),
                "--check-fraction", repr(CHECK_FRACTION), "--workers", str(workers),
                "--out", out]
        if self.upsilon is not None:
            argv += ["--upsilon", repr(self.upsilon)]
        if self.grid is not None:
            argv += ["--grid", ",".join(repr(v) for v in self.grid)]
        return argv + list(call)

    def scaled(self, rounds: int) -> "Workload":
        """The same workload at another size; pinned digests no longer apply."""
        return dataclasses.replace(
            self, rounds=rounds, row_rounds=min(self.row_rounds, rounds),
            counters_sha256=None, artifact_sha256=(),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_large",
            command="simulate",
            rounds=10_000_000,
            upsilon=math.pi / 6,
            calls=((),),
            probe_upsilon=math.pi / 6,
            row_rounds=20_000,
            counters_sha256="ec384e025b70a18b368443f4f001d7bec6307e9dedada08d6ce4e1ab15b3efce",
            artifact_sha256=(
                "4a41db08da9c9feac48e2b64f11020e6a18ccec98fd79fbfab836316605634f3",
            ),
        ),
        Workload(
            name="sweep_grid",
            command="sweep",
            rounds=200_000,
            grid=SWEEP_GRID,
            calls=((),),
            probe_upsilon=SWEEP_GRID[16],
            row_rounds=20_000,
            counters_sha256="efcc325838f6a9869f3bdffb311dd92d332a51f892384da2cb9755afffd1919e",
            artifact_sha256=(
                "9fc41df662d26b13a0a6b54066406a4fad52a333a5559ac2e128fb5b196881c1",
            ),
        ),
        Workload(
            name="export_rounds",
            command="simulate",
            rounds=200_000,
            upsilon=math.pi / 6,
            calls=(("--include-rounds",), ("--format", "csv")),
            probe_upsilon=math.pi / 6,
            row_rounds=200_000,
            counters_sha256="ba7494b4efdaed0e2ae1bcd7ba43a8103355273453e3055d506c1e27fb692150",
            artifact_sha256=(
                "85b221af3f4a3840babde70843cbf9118483bb182c69a9b6539fffc4ac6764e6",
                "c2c552050dd54eee39911c1c4e799add2a5fc0f158154b6c64e309cb143d1d5e",
            ),
        ),
    )
}
