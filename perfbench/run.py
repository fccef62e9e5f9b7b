"""Benchmark of ``punk-hedonics all`` on generated inputs.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The inputs are generated from ``--seed`` into
``.perfbench_work/``.  Every sample launches a fresh interpreter, runs
``cli.main([..., "all"])`` and checks its outputs against the generator's
ground truth; an import-only launch follows each untraced sample.  Samples
repeat until ``--seconds`` have passed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``wall_rel``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones of a traced sample.  The line
before it holds the run's details: settings, versions, every sample and
the output digests.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

# Input size relative to the unscaled workloads in gen.py, chosen so one
# sample of ``all`` takes about 2 s and a run holds several samples.
SCALE = 0.1
MIN_SAMPLES = 3                 # untraced ``all`` samples, even past --seconds
IMPORTS_PER_SAMPLE = 1          # import-only launches after each ``all`` sample
# ``setup_s`` is import time in seconds of a host on which the reference
# loop takes this long: the median of import ÷ reference loop, times this.
REFERENCE_NOMINAL_S = 0.2
BUDGET_S = 150.0                # no sample starts after this much of the run
HARD_LIMIT_S = 170.0            # a child still running then is killed

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PUNK_HEDONICS_DATA_DIR", "PYTHONSTARTUP")}
    env.update(PINNED_ENV, PYTHONPATH=str(root / "src"))
    return env


def launch(mode: str, result: Path, env: dict, cli_args=(),
           timeout: float = HARD_LIMIT_S) -> tuple[dict | None, str]:
    """Run child.py once; return its result document (None on failure) and stderr."""
    result.unlink(missing_ok=True)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(launched), str(result), mode,
             *cli_args],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"killed after {timeout:.0f} s"
    if proc.returncode != 0 or "Traceback" in proc.stderr or not result.is_file():
        return None, proc.stderr.strip() or f"exit code {proc.returncode}"
    return json.loads(result.read_text(encoding="utf-8")), proc.stderr


def summary(values: list[float]) -> dict:
    """Best, median, worst and relative spread of a run's samples."""
    best = min(values)
    return {"n": len(values), "best": best, "median": statistics.median(values),
            "worst": max(values), "spread": (max(values) - best) / best}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, scale: float) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"pinned_env": PINNED_ENV, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": git_sha(root), "scale": scale}


def run(args, root: Path, scale: float = SCALE) -> tuple[dict, dict]:
    """One benchmark run; returns the report and the result line."""
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    started = time.monotonic()
    truth = gen.generate(args.workload, args.seed, work / "inputs", scale)
    generate_s = time.monotonic() - started
    env = child_env(root)

    # Warm-up: writes the bytecode cache and loads the libraries once.
    warm, err = launch("import", work / "setup.json", env)
    if warm is None:
        raise SystemExit(f"error: cannot import punk_hedonics.cli from {root / 'src'}: {err}")

    samples, traced, imports, failures = [], [], [], []
    reference = None
    deadline = time.monotonic() + args.seconds
    limit = started + BUDGET_S
    attempts = 0
    # At least MIN_SAMPLES attempts; a traced run alternates untraced and traced.
    while time.monotonic() < limit and (
            time.monotonic() < deadline or attempts < MIN_SAMPLES + args.trace):
        mode = "trace" if args.trace and attempts % 2 else "run"
        attempts += 1
        out = work / f"out-{attempts}"
        doc, err = launch(mode, work / "sample.json", env,
                          ["--config", str(work / "inputs" / "config.txt"),
                           "--output-dir", str(out), "all"],
                          timeout=started + HARD_LIMIT_S - time.monotonic())
        try:
            problems = [] if doc is None else checks.check_outputs(out, truth)
        except Exception as exc:        # an output whose shape changed
            problems = [f"checking the outputs raised {exc!r}"]
        if doc is not None and not problems:
            found = checks.digests(out)
            reference = reference or found
            problems = [f"{name} differs from the first sample's"
                        for name in checks.OUTPUTS if found[name] != reference[name]]
        if doc is not None and doc.get("exit_code") != 0:
            problems.append(f"exit code {doc.get('exit_code')}")
        shutil.rmtree(out, ignore_errors=True)
        if doc is None or problems:
            failures.append({"kind": mode, "error": (err[-2000:] if doc is None
                                                     else "; ".join(problems))})
        elif mode == "run":
            samples.append(doc)
        else:
            traced.append(doc)
        if not args.trace:
            for _ in range(IMPORTS_PER_SAMPLE):
                attempts += 1
                doc, err = launch("import", work / "setup.json", env,
                                  timeout=max(1.0, started + HARD_LIMIT_S - time.monotonic()))
                if doc is None:
                    failures.append({"kind": "import", "error": err[-2000:]})
                else:
                    imports.append(doc)

    walls = [d["wall_s"] for d in samples]
    relative = [d["wall_s"] / d["reference_s"] for d in samples]
    launches = samples + imports
    setup_rel = [d["setup_s"] / d["setup_reference_s"] for d in launches]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(root, scale), "generate_s": generate_s,
        "truth": truth, "samples": samples, "imports": imports, "digests": reference,
        "failures": failures,
    }
    if samples:
        for name, values in (("wall_s", walls), ("reference_s", [d["reference_s"] for d in samples]),
                             ("wall_rel", relative),
                             ("setup_raw_s", [d["setup_s"] for d in launches]),
                             ("setup_reference_s", [d["setup_reference_s"] for d in launches]),
                             ("setup_rel", setup_rel),
                             ("peak_rss_mb", [d["peak_rss_mb"] for d in samples]),
                             ("import_rss_mb", [d["peak_rss_mb"] for d in imports])):
            if values:
                report[name] = summary(values)
    result = {"correct": not failures, "attempted": attempts, "failed": len(failures)}
    metrics = {}
    if not args.trace and samples:
        metrics = {
            "wall_rel": {"value": statistics.median(relative), "unit": "ref"},
            "setup_s": {"value": REFERENCE_NOMINAL_S * statistics.median(setup_rel),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                d["peak_rss_mb"] for d in samples), "unit": "MB"},
        }
    elif args.trace and traced:
        # Layer figures come from the traced sample of median length; the
        # overhead compares medians of interleaved traced and untraced samples.
        typical = sorted(traced, key=lambda d: d["wall_s"])[len(traced) // 2]
        report["trace_detail"] = typical["trace"]
        layers = dict(typical["trace"]["metrics"])
        layers["trace.overhead_s"] = (
            {"value": statistics.median(d["wall_s"] for d in traced)
             - statistics.median(walls)} if walls else
            {"value": None, "reason": "no untraced sample succeeded"})
        metrics = {name: {**m, "unit": UNITS[name]} for name, m in layers.items()}
    result["metrics"] = metrics
    shutil.rmtree(work / "inputs", ignore_errors=True)
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report, result


UNITS = {
    "sentiment.score_calls": "count", "sentiment.score_s": "s",
    "sentiment.distinct_ratio": "ratio", "sentiment.lexicon_loads": "count",
    "sentiment.lexicon_s": "s", "tweets.ingest_calls": "count", "tweets.ingest_s": "s",
    "tweets.rows_read": "count", "tweets.accept_ratio": "ratio", "tweets.rejects": "count",
    "tweets.keyword_s": "s", "market.ingest_calls": "count", "market.ingest_s": "s",
    "market.rows_read": "count", "market.aggregates_s": "s", "series.pct_change_s": "s",
    "panel.build_s": "s", "panel.rows_emitted": "count", "panel.write_s": "s",
    "panel.bytes_written": "bytes", "panel.screen_s": "s", "econometrics.adf_calls": "count",
    "econometrics.adf_s": "s", "econometrics.ols_calls": "count", "econometrics.ols_s": "s",
    "study.suite_s": "s", "study.precheck_s": "s", "cli.total_s": "s", "cli.self_s": "s",
    "cli.input_passes": "count", "trace.overhead_s": "s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills and waits for the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "punk_hedonics" / "cli.py").is_file():
        print(f"error: {root} holds no src/punk_hedonics/cli.py; "
              "run from the root of a punk-hedonics checkout", file=sys.stderr)
        return 2
    report, result = run(args, root)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
