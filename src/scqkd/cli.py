"""Command-line harness: simulate, sweep, threshold and ontology commands.

Configuration comes from (highest precedence first) command-line flags, a
flat ``key = value`` config file, the CQCSIM_SEED environment variable for
the seed, and built-in defaults.  Angles are radians unless --degrees is
given.  Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 integrity violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .ontology import IntegrityViolationError, classification_matrix
from .protocol import SessionConfig, run_session
from .security import (
    InsufficientCheckDataError,
    estimate_from_session,
    solve_threshold,
    sweep_csv,
    sweep_reports,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTEGRITY = 4

SEED_ENV_VAR = "CQCSIM_SEED"

_DEFAULTS = {
    "rounds": 100_000,
    "upsilon": None,
    "seed": 0,
    "check_fraction": 0.1,
    "workers": 1,
    "format": "json",
    "out": None,
    "grid": None,
    "tolerance": 1e-9,
    "degrees": False,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation parameters."""

    n_rounds: int
    upsilon: float | None
    seed: int
    check_fraction: float
    workers: int
    output_format: str
    output_path: str | None

    def session_config(self) -> SessionConfig:
        return SessionConfig(
            n_rounds=self.n_rounds,
            upsilon=self.upsilon,
            seed=self.seed,
            check_fraction=self.check_fraction,
        )


def _read_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


_CONVERTERS = {
    "rounds": int,
    "upsilon": float,
    "seed": int,
    "check_fraction": float,
    "workers": int,
    "format": str,
    "out": str,
    "tolerance": float,
    "grid": str,
    "degrees": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over the env seed over defaults."""
    values = dict(_DEFAULTS)
    file_values: dict[str, object] = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            try:
                file_values[key] = _CONVERTERS[key](raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    values.update(file_values)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values["grid"] is not None and isinstance(values["grid"], str):
        values["grid"] = _parse_grid(values["grid"])
    if values["degrees"]:
        if values["upsilon"] is not None:
            values["upsilon"] = math.radians(values["upsilon"])
        if values["grid"] is not None:
            values["grid"] = [math.radians(v) for v in values["grid"]]
    if values["format"] not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {values['format']!r}")
    return values


def _parse_grid(spec: str) -> list[float]:
    items = [s for s in (part.strip() for part in spec.split(",")) if s]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise ValueError(f"grid must be comma-separated numbers, got {spec!r}") from exc


def _run_config(values: dict) -> RunConfig:
    return RunConfig(
        n_rounds=values["rounds"],
        upsilon=values["upsilon"],
        seed=values["seed"],
        check_fraction=values["check_fraction"],
        workers=values["workers"],
        output_format=values["format"],
        output_path=values["out"],
    )


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one session, estimate security quantities, write both artifacts."""
    values = _resolve(args)
    cfg = _run_config(values)
    log = run_session(cfg.session_config(), workers=cfg.workers)
    report = estimate_from_session(log)
    if cfg.output_format == "json":
        # Both parts are canonical documents and "report" sorts before "session".
        session = log.to_json(include_rounds=args.include_rounds)
        _write_output(
            "".join(('{"report":', report.to_json()[:-1], ',"session":', session[:-1], "}\n")),
            cfg.output_path,
        )
    else:
        _write_output(log.to_csv(), cfg.output_path)
        sys.stdout.write(report.to_json())
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one session per grid angle and emit the security curve."""
    values = _resolve(args)
    cfg = _run_config(values)
    if values["grid"] is None:
        raise ValueError("sweep requires --grid (comma-separated angles)")
    grid = values["grid"]
    for v in grid:
        if not 0.0 <= v <= math.pi / 2:
            raise ValueError(f"grid angle must lie in [0, pi/2], got {v}")
    reports = sweep_reports(
        grid,
        n_rounds=cfg.n_rounds,
        seed=cfg.seed,
        check_fraction=cfg.check_fraction,
        workers=cfg.workers,
    )
    if cfg.output_format == "json":
        doc = [r.as_dict() for r in reports]
        _write_output(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", cfg.output_path)
    else:
        _write_output(sweep_csv(reports), cfg.output_path)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    """Solve the key-rate threshold and print it as JSON."""
    values = _resolve(args)
    v_star, epsilon_star = solve_threshold(values["tolerance"])
    doc = {"v_star": v_star, "epsilon_star": epsilon_star}
    _write_output(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", values["out"])
    return EXIT_OK


def cmd_ontology(args: argparse.Namespace) -> int:
    """Classify the canonical scenarios and print the matrix."""
    values = _resolve(args)
    rows = classification_matrix()
    if values["format"] == "json":
        _write_output(json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n", values["out"])
    else:
        lines = ["scenario,real,physical,classification"]
        for row in rows:
            lines.append(
                f"{row['scenario']},{str(row['real']).lower()},"
                f"{str(row['physical']).lower()},{row['classification']}"
            )
        _write_output("\n".join(lines) + "\n", values["out"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scqkd",
        description="Semi-counterfactual quantum key distribution simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--rounds", type=int, help="number of protocol rounds")
        p.add_argument("--upsilon", type=float, help="attack probe angle")
        p.add_argument("--seed", type=int, help=f"64-bit seed (fallback: ${SEED_ENV_VAR})")
        p.add_argument("--check-fraction", dest="check_fraction", type=float,
                       help="fraction of rounds disclosed for checking")
        p.add_argument("--workers", type=int, help="worker count (never changes results)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--degrees", action="store_true", default=None,
                       help="interpret angles as degrees")

    sim = sub.add_parser("simulate", help="run one session and its security report")
    add_common(sim)
    sim.add_argument("--include-rounds", action="store_true",
                     help="embed the per-round array in the session JSON")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="security curve over a grid of probe angles")
    add_common(swp)
    swp.add_argument("--grid", help="comma-separated probe angles")
    swp.set_defaults(func=cmd_sweep)

    thr = sub.add_parser("threshold", help="solve the key-rate security threshold")
    add_common(thr)
    thr.add_argument("--tolerance", type=float, help="residual tolerance (default 1e-9)")
    thr.set_defaults(func=cmd_threshold)

    ont = sub.add_parser("ontology", help="classify the canonical scenarios")
    add_common(ont)
    ont.set_defaults(func=cmd_ontology)
    return parser


def main(argv=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrityViolationError as exc:
        print(f"integrity violation: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, InsufficientCheckDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
