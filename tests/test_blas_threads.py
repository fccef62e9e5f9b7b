"""Every output of ``all`` is the same under 1 and 2 BLAS threads.

The fits sum their n-vectors with elementwise numpy and ``np.add.reduce``
alone.  A BLAS dot product or matrix-vector product may split a long sum
between its threads, so that its last bits depend on the thread count;
with OpenBLAS, fits built on ``np.linalg.qr`` and ``@`` gave two different
``suite.json`` files on this panel of over 13,000 rows.  Each run is a
child interpreter, since a BLAS reads its thread count when it loads.
"""

import os
import subprocess
import sys
from pathlib import Path

from conftest import write_synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_all(config: Path, out: Path, threads: int) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path,
           **{name: str(threads) for name in THREAD_VARIABLES}}
    proc = subprocess.run(
        [sys.executable, "-m", "punk_hedonics", "--config", str(config),
         "--output-dir", str(out), "all"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    config = write_synthetic_dataset(tmp_path, seed=11, sales_per_day=(56, 62))
    for threads in (1, 2):
        run_all(config, tmp_path / f"out-{threads}", threads)
    one, two = tmp_path / "out-1", tmp_path / "out-2"
    assert (one / "panel.csv").read_bytes().count(b"\n") - 1 >= 13_000
    names = sorted(path.name for path in one.iterdir())
    assert len(names) == 12 and names == sorted(path.name for path in two.iterdir())
    assert [name for name in names
            if (one / name).read_bytes() != (two / name).read_bytes()] == []
