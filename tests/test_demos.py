"""Every demo script runs to completion against the current package."""

import os
import pathlib
import subprocess
import sys

import pytest

import setvec

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = os.path.dirname(os.path.dirname(setvec.__file__))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    # The warning policy pyproject.toml sets for the tests holds for the demos too.
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    proc = subprocess.run(
        [sys.executable, *warnings, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 7
