"""Pinned bytes of every CLI command's outputs at fixed configurations.

The digests cover what a user receives from ``scqkd simulate``: the
``--include-rounds`` JSON artifact, the ``--format csv`` file and the
report that the CSV run prints to stdout; from ``scqkd sweep``: the
JSON and the CSV security curve; from ``scqkd threshold`` at two
tolerances; and from ``scqkd ontology`` in both formats.  A change that alters any byte is a
behaviour change and must re-pin them on purpose.  Written to stdout
(``--out -``), both simulate artifacts are the same bytes as in a file.
"""

import hashlib
import json
import math

import pytest

import scqkd.cli as cli

ARGV = ["simulate", "--rounds", "5000", "--upsilon", repr(math.pi / 6), "--seed", "0",
        "--check-fraction", "0.1"]

JSON_SHA256 = "5cc17006ff9dd86bb6eef5c2b5f7cda8f9481d23d3a85d196270df48372e0b2e"
CSV_SHA256 = "5630015719ca4e8bc24a3094f8921b973ff6e0c73687d5bbb629f5a406aac26c"
CSV_REPORT_SHA256 = "6b7fea92107e3da5fed217249ee238d4863e1b3a17f24e12e197296d195f17fc"

# Angle 0, pi/2, a middle angle twice; 150 000 rounds span three chunks of 2**16.
SWEEP_ARGV = ["sweep", "--rounds", "150000", "--seed", "7", "--check-fraction", "0.1",
              "--grid", f"0,0.7,{math.pi / 2!r},0.7"]
SWEEP_SHA256 = {
    "json": "b3b7cb49c66c4eabb30c3cc389aaf6b135b40680a5e3be40beb3b48f68a216cf",
    "csv": "81e1dd57fd2667b015e2d9598b844de8b3ba89b400654df36b81d9b27b79563e",
}

THRESHOLD_SHA256 = {
    (): "88943dd15930fcc8445472348b00087a40eed1912c71484ed9fc28d471bc81c2",
    ("--tolerance", "1e-4"): "6bf6d5a0102c1f5fa0c5b3196f3abb97cdd535144637b6795c01e56e9916857a",
}
ONTOLOGY_SHA256 = {
    "json": "1d71910bc00c06b2f4e00c39743d0eea259f9dac7a13511af81879ed74028cfe",
    "csv": "cef22aade8fb94be52d0a29b3d5e8311439d73443f556e346a4e30e5766179c5",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def json_artifact(tmp_path_factory) -> bytes:
    out = tmp_path_factory.mktemp("cli") / "rounds.json"
    assert cli.main([*ARGV, "--include-rounds", "--out", str(out)]) == 0
    return out.read_bytes()


def test_include_rounds_json_is_pinned(json_artifact):
    assert sha256(json_artifact) == JSON_SHA256


def test_json_artifact_is_its_own_canonical_encoding(json_artifact):
    text = json_artifact.decode()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text


def test_csv_file_and_printed_report_are_pinned(tmp_path, capsys):
    out = tmp_path / "rounds.csv"
    assert cli.main([*ARGV, "--format", "csv", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == CSV_SHA256
    assert sha256(capsys.readouterr().out.encode()) == CSV_REPORT_SHA256


def test_stdout_gets_the_json_artifacts_bytes(json_artifact, capsysbinary):
    assert cli.main([*ARGV, "--include-rounds", "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == json_artifact


def test_stdout_gets_the_csv_files_bytes_then_the_report(tmp_path, capsysbinary):
    out = tmp_path / "rounds.csv"
    assert cli.main([*ARGV, "--format", "csv", "--out", str(out)]) == 0
    report = capsysbinary.readouterr().out
    assert cli.main([*ARGV, "--format", "csv", "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes() + report


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_output_is_pinned(tmp_path, fmt, workers):
    out = tmp_path / f"sweep.{fmt}"
    assert cli.main([*SWEEP_ARGV, "--workers", workers, "--format", fmt,
                     "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == SWEEP_SHA256[fmt]


@pytest.mark.parametrize("args", sorted(THRESHOLD_SHA256))
def test_threshold_output_is_pinned(tmp_path, args):
    out = tmp_path / "threshold.json"
    assert cli.main(["threshold", *args, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == THRESHOLD_SHA256[args]


@pytest.mark.parametrize("fmt", sorted(ONTOLOGY_SHA256))
def test_ontology_output_is_pinned(tmp_path, fmt):
    out = tmp_path / f"ontology.{fmt}"
    assert cli.main(["ontology", "--format", fmt, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == ONTOLOGY_SHA256[fmt]
