"""Command-line harness: simulate, sweep, threshold and ontology commands.

Every option is one row of ``OPTIONS``: its converter from text, its
default, the commands that read it and its help text.  A command accepts
only the flags it reads.  Values are layered as text (lowest precedence
first): built-in default, the CQCSIM_SEED environment variable for the
seed, a flat ``key = value`` config file, command-line flags; each value
the command reads is then converted once.  Angles are radians unless
--degrees is given.  Exit codes: 0 success, 2 configuration error, 3 I/O
error, 4 integrity violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from collections.abc import Iterable
from typing import Callable, NamedTuple

from .ontology import IntegrityViolationError, classification_matrix
from .protocol import SessionConfig, _canonical, _csv_line, run_session
from .security import (
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

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _boolean(text: str) -> bool:
    word = text.strip().lower()
    if word not in _TRUE + _FALSE:
        raise ValueError(f"expected one of {'/'.join(_TRUE)} or {'/'.join(_FALSE)}, got {text!r}")
    return word in _TRUE


def _output_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {text!r}")
    return text


def _parse_grid(spec: str) -> list[float]:
    items = [s for s in (part.strip() for part in spec.split(",")) if s]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise ValueError(f"grid must be comma-separated numbers, got {spec!r}") from exc


class Option(NamedTuple):
    convert: Callable[[str], object]
    default: object
    commands: tuple[str, ...]
    help: str


_SESSION = ("simulate", "sweep")

OPTIONS = {
    "rounds": Option(int, 100_000, _SESSION, "number of protocol rounds"),
    "upsilon": Option(float, None, ("simulate",), "attack probe angle"),
    "seed": Option(int, SessionConfig.seed, _SESSION, f"64-bit seed (fallback: ${SEED_ENV_VAR})"),
    "check_fraction": Option(float, SessionConfig.check_fraction, _SESSION,
                             "fraction of rounds disclosed for checking"),
    "workers": Option(int, 1, _SESSION, "worker count (never changes results)"),
    "format": Option(_output_format, "json", ("simulate", "sweep", "ontology"),
                     "output format: json or csv"),
    "out": Option(str, None, ("simulate", "sweep", "threshold", "ontology"),
                  "output path (default: stdout)"),
    "degrees": Option(_boolean, False, _SESSION, "interpret angles as degrees"),
    "include_rounds": Option(_boolean, False, ("simulate",),
                             "embed the per-round array in the session JSON"),
    "grid": Option(_parse_grid, None, ("sweep",), "comma-separated probe angles"),
    "tolerance": Option(float, 1e-9, ("threshold",), "residual tolerance (default 1e-9)"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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
            if key not in OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """The options ``args.command`` reads: the top text layer of each, converted once."""
    text: dict[str, tuple[str, str]] = {}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        text["seed"] = (SEED_ENV_VAR, env_seed)
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            text[key] = (f"config key {key!r}", raw)
    values = {}
    for key, option in OPTIONS.items():
        if args.command not in option.commands:
            continue
        if getattr(args, key) is not None:
            text[key] = (_flag(key), getattr(args, key))
        if key not in text:
            values[key] = option.default
            continue
        source, raw = text[key]
        try:
            values[key] = option.convert(raw)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from exc
    if values.get("degrees"):
        if values.get("upsilon") is not None:
            values["upsilon"] = math.radians(values["upsilon"])
        if values.get("grid") is not None:
            values["grid"] = [math.radians(v) for v in values["grid"]]
    return values


def _write_output(path: str | None, pieces: Iterable[str]) -> None:
    """Write ``pieces`` in order, each as it comes: to stdout as text, or to the file as UTF-8.

    A file gets each piece encoded on its own and written as bytes.  Neither
    writer holds a piece once it is written, so a streamed document is never
    joined or encoded whole, and one of its pieces is alive at a time.
    """
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "wb") as fh:
            fh.writelines(map(str.encode, pieces))


def _session_config(values: dict) -> SessionConfig:
    """The session the resolved options describe; ``sweep`` reads no upsilon."""
    return SessionConfig(n_rounds=values["rounds"], upsilon=values.get("upsilon"),
                         seed=values["seed"], check_fraction=values["check_fraction"])


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one session, estimate security quantities, write both artifacts."""
    values = _resolve(args)
    if values["include_rounds"] and values["format"] == "csv":
        raise ValueError("--include-rounds needs --format json: the csv output is per round")
    session = run_session(_session_config(values), workers=values["workers"])
    report = estimate_from_session(session)
    if values["format"] == "csv":
        _write_output(values["out"], session._document("csv"))
        sys.stdout.write(report.to_json())
        return EXIT_OK
    # Both parts are canonical documents and "report" sorts before "session".
    # A canonical JSON document holds one newline, its last character, so
    # dropping a newline from each piece of the session drops only that one.
    session_json = session._document("json") if values["include_rounds"] else [session.to_json()]
    pieces = itertools.chain(
        ['{"report":', _canonical(vars(report)), ',"session":'],
        map(lambda piece: piece.removesuffix("\n"), session_json),
        ["}\n"],
    )
    _write_output(values["out"], pieces)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one session per grid angle and emit the security curve."""
    values = _resolve(args)
    grid = values["grid"]
    if grid is None:
        raise ValueError("sweep requires --grid (comma-separated angles)")
    reports = sweep_reports(_session_config(values), grid, workers=values["workers"])
    if values["format"] == "json":
        _write_output(values["out"], [_canonical(list(map(vars, reports))) + "\n"])
    else:
        _write_output(values["out"], [sweep_csv(reports)])
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    """Solve the key-rate threshold and print it as JSON."""
    values = _resolve(args)
    v_star, epsilon_star = solve_threshold(values["tolerance"])
    doc = {"v_star": v_star, "epsilon_star": epsilon_star}
    _write_output(values["out"], [_canonical(doc) + "\n"])
    return EXIT_OK


def cmd_ontology(args: argparse.Namespace) -> int:
    """Classify the canonical scenarios and print the matrix."""
    values = _resolve(args)
    rows = classification_matrix()
    if values["format"] == "json":
        _write_output(values["out"], [_canonical(rows) + "\n"])
    else:
        lines = [_csv_line(rows[0].keys()), *(_csv_line(row.values()) for row in rows)]
        _write_output(values["out"], lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scqkd",
        description="Semi-counterfactual quantum key distribution simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("simulate", "run one session and its security report"),
        ("sweep", "security curve over a grid of probe angles"),
        ("threshold", "solve the key-rate security threshold"),
        ("ontology", "classify the canonical scenarios"),
    )
    for name, help_text in commands:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat key = value config file")
        for key, option in OPTIONS.items():
            if name not in option.commands:
                continue
            if option.convert is _boolean:
                cmd.add_argument(_flag(key), dest=key, action="store_const", const="true",
                                 help=option.help)
            else:
                cmd.add_argument(_flag(key), dest=key, help=option.help)
    return parser


#: The parser ``main`` reads every command line with, built on first use.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Dispatch a command line; returns the process exit code.

    The parser is built once per process.  Each command line's
    ``cmd_<command>`` function is looked up in this module when it runs, so
    a function replaced on the module is the one called.
    """
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except IntegrityViolationError as exc:
        print(f"integrity violation: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
