"""Each script in ``demos/`` and the README's quick start run to completion
against the package.

They use the public API the way a reader would, so a change to a return
type that one still reads the old way, or a name one imports that the
package no longer exports, fails here.  Each runs in a fresh interpreter
with ``PYTHONPATH=src``, as the README tells a reader to run it, and under
``-W error``, so a warning fails it too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = re.search(r"^```python\n(.*?)^```",
                        (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE).group(1)
PROGRAMS = ([pytest.param([str(demo)], id=demo.name) for demo in DEMOS]
            + [pytest.param(["-c", QUICK_START], id="README.md")])


@pytest.mark.parametrize("program", PROGRAMS)
def test_demo_runs_and_exits_zero(program):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error", *program], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
