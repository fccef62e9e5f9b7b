"""The benchmark's per-layer trace hooks still reach the program.

``perfbench/tracing.py`` wraps public functions at the module attribute
their caller looks up.  Renaming one, or calling it by another name, leaves
its hook missing or never called, and the benchmark's per-layer metric for
it null.  This runs one traced ``all`` in a child interpreter, since the
hooks replace module attributes for the rest of the process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from conftest import write_synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]

CHILD = textwrap.dedent("""\
    import json, sys
    import tracing
    tracer = tracing.install()
    from punk_hedonics import cli
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code,
                   "hooks": [f"{m}.{a}" for m, a, *_ in tracing.SPANS + tracing.COUNTERS],
                   "report": tracer.report()}, fh)
    """)


def test_traced_run_calls_every_hook_and_reports_every_metric(tmp_path):
    config = write_synthetic_dataset(tmp_path)
    result = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(result),
         "--config", str(config), "--output-dir", str(tmp_path / "out"), "all"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text(encoding="utf-8"))
    report = doc["report"]
    assert doc["exit_code"] == 0, proc.stderr
    assert report["missing_hooks"] == {}
    called = ({span["name"] for span in report["spans"]}
              | {name for name, counter in report["counters"].items() if counter["calls"]})
    assert [hook for hook in doc["hooks"] if hook not in called] == []
    assert {name: metric["reason"] for name, metric in report["metrics"].items()
            if metric["value"] is None} == {}
