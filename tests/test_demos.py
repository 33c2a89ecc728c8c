"""The demos' standard output, byte for byte against stored text.

Each script of ``demos/`` runs in a subprocess, as a user runs it, with an
overflow or invalid-value warning made an error; its output must equal
``tests/demo_outputs/<script name>.txt``.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(REPO, "demos")
OUTPUTS = os.path.join(REPO, "tests", "demo_outputs")
NAMES = sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))


def test_every_demo_has_a_stored_output():
    stored = sorted(name[:-4] for name in os.listdir(OUTPUTS))
    assert NAMES and stored == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_output_is_byte_identical(name):
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", f"demos/{name}.py"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(OUTPUTS, f"{name}.txt"), encoding="utf-8") as fh:
        assert done.stdout == fh.read()
