"""The CLI commands of the README, byte for byte against stored outputs.

``bench/reference/builtin_cli.json`` holds each command's exit code,
standard output and CSV text. This test only reads it.
"""

import json
import os

import pytest

from fairdyn.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(REPO, "bench", "reference", "builtin_cli.json")
MODEL = os.path.join(REPO, "configs", "hiring_causal.yaml")

WITH_CSV = {
    "metrics_lending_liu": ["metrics", "--scenario", "lending_liu"],
    "metrics_boards_quota": ["metrics", "--scenario", "boards_quota"],
    "simulate_lending_liu": ["simulate", "--scenario", "lending_liu"],
    "simulate_boards_quota": [
        "simulate", "--scenario", "boards_quota", "--steps", "20"
    ],
    "compare_boards_quota": [
        "compare", "--scenario", "boards_quota",
        "--variants", "quota_only,quota_pipeline",
    ],
    "sweep_lending_liu": [
        "sweep", "--scenario", "lending_liu", "--eps", "0.01",
        "--draws", "20", "--seed", "7",
    ],
}
STDOUT_ONLY = {
    **{
        f"optimize_{c}": ["optimize", "--scenario", "lending_liu", "--constraint", c]
        for c in ("dp", "eo", "outcome", "none")
    },
    "causal_dsep": ["causal", "--model", MODEL, "--check", "dsep", "--given", "D,X"],
    "causal_cf": ["causal", "--model", MODEL, "--check", "cf"],
    "causal_unresolved": [
        "causal", "--model", MODEL, "--check", "unresolved", "--resolving", "D"
    ],
    "causal_proxy": ["causal", "--model", MODEL, "--check", "proxy", "--proxy", "X"],
}

with open(REFERENCE, encoding="utf-8") as fh:
    WANT = json.load(fh)["outputs"]


def test_reference_covers_every_command():
    assert set(WANT) == set(WITH_CSV) | set(STDOUT_ONLY)


@pytest.mark.parametrize("name", sorted(WITH_CSV) + sorted(STDOUT_ONLY))
def test_output_is_byte_identical(name, tmp_path, capsys):
    argv = list(WITH_CSV.get(name) or STDOUT_ONLY[name])
    out = tmp_path / f"{name}.csv"
    if name in WITH_CSV:
        argv += ["--out", str(out)]
    assert main(argv) == WANT[name]["rc"]
    assert capsys.readouterr().out == WANT[name]["stdout"]
    csv_text = out.read_text(encoding="utf-8") if name in WITH_CSV else None
    assert csv_text == WANT[name]["csv"]
