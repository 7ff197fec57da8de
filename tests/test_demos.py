"""Every demo runs to completion as a user would run it: as a script, from
a working directory of its own, with numpy's RuntimeWarnings raised as
errors. Demo 05 trains and compares two arms, so it runs the training
engine and its evaluations end to end.

Demo 03 (the variance-search baseline) is left out: it takes about as
long as the other six together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import strength_init

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(strength_init.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [p.name for p in sorted(DEMOS.glob("*.py")) if not p.name.startswith("03_")],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
