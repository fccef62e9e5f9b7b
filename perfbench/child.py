"""One benchmark sample, run in a fresh interpreter the way a CLI user runs it.

    python3 child.py LAUNCHED_AT RESULT_JSON import
    python3 child.py LAUNCHED_AT RESULT_JSON run|trace CLI_ARGS...

LAUNCHED_AT is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` runs from there until ``punk_hedonics.cli`` is imported.
Right after the import the child times a fixed reference loop
(``setup_reference_s``), so the host's speed at that moment is known too.
``import`` stops there.  ``run`` then times ``cli.main(CLI_ARGS)`` and the
reference loop once more; ``trace`` does the same with the per-layer hooks
of ``tracing.py`` installed.  The result goes to RESULT_JSON.
"""

import time
import sys

from punk_hedonics import cli

_imported = time.monotonic()


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of dict stores and integer arithmetic."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(1_000_000):
        table[i & 1023] = acc
        acc += i * i
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started, in MiB.

    Linux's ``ru_maxrss`` also counts the parent's resident set at the fork
    that started this process, so ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    import json

    launched, result_path, mode, cli_args = (float(sys.argv[1]), sys.argv[2],
                                             sys.argv[3], sys.argv[4:])
    before = reference_loop()
    doc = {"setup_s": _imported - launched, "setup_reference_s": before}
    if mode != "import":
        tracer = None
        if mode == "trace":
            import tracing
            tracer = tracing.install()
        start = time.perf_counter()
        doc["exit_code"] = cli.main(cli_args)
        doc["wall_s"] = time.perf_counter() - start
        doc["reference_s"] = (before + reference_loop()) / 2
        if tracer is not None:
            doc["trace"] = tracer.report()
    doc["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
