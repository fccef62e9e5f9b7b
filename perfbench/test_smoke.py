"""Tiny-scale smoke test of the benchmark: generator, output checks, trace hooks.

    python3 -m pytest perfbench/test_smoke.py -q

Runs in about half a minute; it is not part of the repository's test suite.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# At smaller sizes some seeds leave a window without a non-human sale, and
# ``regress`` then exits 1 on the singular design instead of skipping that
# window (a known defect of the program, not of the benchmark).
TINY = 0.02


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_seeded(tmp_path, workload):
    first = gen.generate(workload, 3, tmp_path / "a", TINY)
    again = gen.generate(workload, 3, tmp_path / "b", TINY)
    other = gen.generate(workload, 4, tmp_path / "c", TINY)
    assert first == again
    signs = first["tweets"]["sign_days"]
    assert [len(signs[k]) for k in ("positive", "zero")] == [gen.SIGN_DAYS] * 2
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first != other


def test_vocabulary_excludes_keywords():
    vocab = gen._Vocabulary(np.random.default_rng(0), 5000)
    words = set(vocab.words.tolist())
    assert len(words) == 5000
    assert not words & set(gen.KEYWORDS)


def _run_once(tmp_path: Path, workload: str) -> tuple[Path, dict]:
    truth = gen.generate(workload, 5, tmp_path / "inputs", TINY)
    out = tmp_path / "out"
    doc, err = run.launch("run", tmp_path / "sample.json", run.child_env(ROOT),
                          ["--config", str(tmp_path / "inputs" / "config.txt"),
                           "--output-dir", str(out), "all"])
    assert doc is not None, err
    assert doc["exit_code"] == 0
    return out, truth


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_outputs_match_ground_truth(tmp_path, workload):
    out, truth = _run_once(tmp_path, workload)
    assert checks.check_outputs(out, truth) == []


def test_checks_catch_wrong_outputs(tmp_path):
    out, truth = _run_once(tmp_path, "raw_scrape")
    broken = tmp_path / "broken"

    def broken_copy():
        shutil.rmtree(broken, ignore_errors=True)
        shutil.copytree(out, broken)
        return broken

    lines = (out / "panel.csv").read_text().splitlines(keepends=True)
    (broken_copy() / "panel.csv").write_text("".join(lines[:-1]))
    assert any("panel.csv rows" in p for p in checks.check_outputs(broken, truth))

    zero_day = truth["tweets"]["sign_days"]["zero"][0]
    text = (out / "daily_sentiment.csv").read_text()
    assert f"{zero_day},0\n" in text
    (broken_copy() / "daily_sentiment.csv").write_text(
        text.replace(f"{zero_day},0\n", f"{zero_day},0.25\n"))
    assert any(zero_day in p for p in checks.check_outputs(broken, truth))

    (broken_copy() / "heatmap.csv").unlink()
    assert checks.check_outputs(broken, truth) == ["missing outputs: heatmap.csv"]

    suite = json.loads((out / "suite.json").read_text())
    full = suite["windows"][2]["label"]
    fit = suite["results"][f"{full}.4"]
    i = fit["names"].index("x_dark")
    fit["coefficients"][i] += 10.0
    (broken_copy() / "suite.json").write_text(json.dumps(suite))
    assert any(p.startswith("x_dark:") for p in checks.check_outputs(broken, truth))


def test_missing_hook_is_null_with_reason():
    tracer = tracing.Tracer()
    tracer.missing["panel.adf_test"] = "panel has no callable 'adf_test'"
    metrics = tracing.layer_metrics(tracer)
    assert metrics["econometrics.adf_calls"]["value"] is None
    assert "missing" in metrics["econometrics.adf_calls"]["reason"]
    assert all(m["value"] is None and m["reason"] for m in metrics.values())


def _bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """A zero-second run at the tiny scale, in this process; its report and result."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    report, result = run.run(args, ROOT, scale=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(report)
    return report, result


def test_traced_run_reports_every_layer_metric():
    report, result = _bench("study", 6, trace=1)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.UNITS)
    missing = {n: m.get("reason") for n, m in metrics.items() if m["value"] is None}
    assert not missing
    truth = report["truth"]
    assert metrics["panel.rows_emitted"]["value"] == truth["sales"]["panel_rows"]
    # Each input is read, and each text to score is scored, at least once.
    assert (metrics["tweets.rows_read"]["value"]
            >= truth["tweets"]["rows"] + truth["keyword"]["rows"])
    assert (metrics["tweets.rejects"]["value"]
            >= truth["tweets"]["rejects"] + truth["keyword"]["rejects"])
    assert (metrics["sentiment.score_calls"]["value"]
            >= truth["tweets"]["accepted"] + truth["keyword"]["keyword_tweets"])


def test_untraced_run_reports_end_to_end_metrics():
    report, result = _bench("market", 7, trace=0)
    assert result["correct"], report["failures"] and result["attempted"] >= run.MIN_SAMPLES
    assert set(result["metrics"]) == {"wall_rel", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(report["imports"]) == run.IMPORTS_PER_SAMPLE * len(report["samples"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
