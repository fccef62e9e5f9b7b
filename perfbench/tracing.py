"""Per-layer trace of one ``punk-hedonics all`` run, hooked from outside.

``install()`` wraps public functions of the program's modules at the name
their caller looks up (``tweets.compound_only``, ``cli.load_lexicon``,
``panel.adf_test`` ...), so no file of the program changes.  Stage
functions record spans with their parent; per-item functions (scoring,
ADF, OLS) only add to a call count and a time, which keeps the overhead
of hundreds of thousands of calls small.

A metric whose hook is missing, or was never called, is reported as
``None`` with a reason, never as 0.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


def _ingest_info(args, result) -> dict:
    report = result[1]
    return {"rows": (report.accepted + len(report.rejects) + report.out_of_window
                     + report.filtered_language),
            "accepted": report.accepted, "rejects": len(report.rejects)}


def _series_info(args, result) -> dict:
    return {"rows": len(result)}


def _panel_info(args, result) -> dict:
    return {"rows": result[1].rows_emitted}


def _written_info(args, result) -> dict:
    stream = args[1]
    stream.flush()
    return {"bytes": os.fstat(stream.fileno()).st_size}


# (module, attribute, layer, observe): a span per call.  ``observe`` maps
# (args, result) to counts kept on the span.
SPANS = (
    ("cli", "main", "cli", None),
    ("cli", "COMMANDS.score", "cli", None),
    ("cli", "COMMANDS.keywords", "cli", None),
    ("cli", "COMMANDS.regress", "cli", None),
    ("cli", "COMMANDS.heatmap", "cli", None),
    ("cli", "load_lexicon", "sentiment", None),
    ("tweets", "ingest_tweets", "tweets", _ingest_info),
    ("tweets", "daily_mean_sentiment", "tweets", None),
    ("tweets", "keyword_frequency", "tweets", None),
    ("tweets", "keyword_sentiment", "tweets", None),
    ("market", "ingest_sales", "market", _ingest_info),
    ("market", "ingest_gas", "market", _series_info),
    ("market", "ingest_fx", "market", _series_info),
    ("market", "daily_aggregates", "market", None),
    ("market", "rarity_score", "market", None),
    ("market", "attribute_distribution", "market", None),
    ("cli", "pct_change", "series", None),
    ("panel", "build_panel", "panel", _panel_info),
    ("panel", "write_panel_csv", "panel", _written_info),
    ("panel", "stationarity_screen", "panel", None),
    ("study", "run_suite", "study", None),
    ("study", "correlation_precheck", "study", None),
)

# (module, attribute): a call count and a total time, no spans.
COUNTERS = (
    ("tweets", "compound_only"),      # sentiment scoring, once per text
    ("panel", "adf_test"),            # econometrics
    ("study", "ols_fit"),             # econometrics
)


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0            # time covered by wrapped calls inside it
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0


class Tracer:
    """Holds the spans and counters of one run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.missing: dict[str, str] = {}
        self.texts: set[str] = set()
        self._stack: list[int] = []

    def _enclosing(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def span(self, name: str, layer: str, fn, observe):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, layer, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                parent = self._enclosing()
                if parent is not None:
                    parent.child_s += span.seconds
            if observe is not None:
                try:
                    span.info = observe(args, result)
                except (AttributeError, IndexError, TypeError, OSError) as exc:
                    span.info = {"error": f"{type(exc).__name__}: {exc}"}
            return result
        return wrapper

    def counter(self, name: str, fn):
        counter = self.counters[name] = Counter()
        texts = self.texts if name == "tweets.compound_only" else None

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                counter.calls += 1
                counter.seconds += seconds
                parent = self._enclosing()
                if parent is not None:
                    parent.child_s += seconds
                if texts is not None and len(args) > 1:
                    texts.add(args[1])
        return wrapper

    def report(self) -> dict:
        """Per-layer metrics plus the raw spans and counters."""
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "metrics": layer_metrics(self),
            "missing_hooks": self.missing,
            "spans": [{"name": s.name, "layer": s.layer, "parent": s.parent,
                       "start_s": s.start - origin, "seconds": s.seconds,
                       "self_s": s.self_s, **s.info} for s in self.spans],
            "counters": {n: {"calls": c.calls, "seconds": c.seconds}
                         for n, c in self.counters.items()},
        }


def _hook(tracer: Tracer, module_name: str, attribute: str, make) -> None:
    """Replace ``module.attribute`` (or ``module.DICT[key]``) by ``make(fn)``."""
    name = f"{module_name}.{attribute}"
    try:
        module = importlib.import_module(f"punk_hedonics.{module_name}")
    except ImportError as exc:
        tracer.missing[name] = f"module not importable: {exc}"
        return
    owner, key = module, attribute
    if "." in attribute:
        table, key = attribute.split(".", 1)
        owner = getattr(module, table, None)
        if not isinstance(owner, dict) or key not in owner:
            tracer.missing[name] = f"no entry {key!r} in {module_name}.{table}"
            return
        fn = owner[key]
    else:
        fn = getattr(module, attribute, None)
    if not callable(fn):
        tracer.missing[name] = f"{module_name} has no callable {attribute!r}"
        return
    wrapped = make(fn)
    if owner is module:
        setattr(module, key, wrapped)
    else:
        owner[key] = wrapped


def install() -> Tracer:
    tracer = Tracer()
    for module_name, attribute, layer, observe in SPANS:
        name = f"{module_name}.{attribute}"
        _hook(tracer, module_name, attribute,
              lambda fn, n=name, l=layer, o=observe: tracer.span(n, l, fn, o))
    for module_name, attribute in COUNTERS:
        name = f"{module_name}.{attribute}"
        _hook(tracer, module_name, attribute, lambda fn, n=name: tracer.counter(n, fn))
    return tracer


class _Missing(Exception):
    """A metric cannot be computed; the message says why."""


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric: a number, or ``None`` with a reason."""

    def spans(*names):
        for name in names:
            if name in tracer.missing:
                raise _Missing(f"hook {name} missing: {tracer.missing[name]}")
        found = [s for s in tracer.spans if s.name in names]
        if not found:
            raise _Missing(f"no call through {' or '.join(names)}")
        return found

    def counter(name):
        if name in tracer.missing:
            raise _Missing(f"hook {name} missing: {tracer.missing[name]}")
        c = tracer.counters.get(name)
        if c is None or not c.calls:
            raise _Missing(f"no call through {name}")
        return c

    def seconds(*names):
        return sum(s.seconds for s in spans(*names))

    def info(key, *names):
        values = [s.info.get(key) for s in spans(*names)]
        if any(v is None for v in values):
            errors = {s.info.get("error") for s in spans(*names)} - {None}
            raise _Missing(f"{key} not observed on {', '.join(names)}"
                           + (f": {', '.join(sorted(errors))}" if errors else ""))
        return sum(values)

    def cli_self():
        # Time in cli-layer spans not covered by a wrapped call under them.
        spans("cli.main")
        return sum(s.self_s for s in tracer.spans if s.layer == "cli")

    ingests = ("market.ingest_sales", "market.ingest_gas", "market.ingest_fx")
    passes = ("tweets.ingest_tweets", "cli.load_lexicon") + ingests
    formulas = {
        "sentiment.score_calls": lambda: counter("tweets.compound_only").calls,
        "sentiment.score_s": lambda: counter("tweets.compound_only").seconds,
        "sentiment.distinct_ratio": lambda: (len(tracer.texts)
                                             / counter("tweets.compound_only").calls),
        "sentiment.lexicon_loads": lambda: len(spans("cli.load_lexicon")),
        "sentiment.lexicon_s": lambda: seconds("cli.load_lexicon"),
        "tweets.ingest_calls": lambda: len(spans("tweets.ingest_tweets")),
        "tweets.ingest_s": lambda: seconds("tweets.ingest_tweets"),
        "tweets.rows_read": lambda: info("rows", "tweets.ingest_tweets"),
        "tweets.accept_ratio": lambda: (info("accepted", "tweets.ingest_tweets")
                                        / info("rows", "tweets.ingest_tweets")),
        "tweets.rejects": lambda: info("rejects", "tweets.ingest_tweets"),
        "tweets.keyword_s": lambda: seconds("tweets.keyword_frequency",
                                            "tweets.keyword_sentiment"),
        "market.ingest_calls": lambda: len(spans(*ingests)),
        "market.ingest_s": lambda: seconds(*ingests),
        "market.rows_read": lambda: info("rows", *ingests),
        "market.aggregates_s": lambda: seconds("market.daily_aggregates",
                                               "market.rarity_score",
                                               "market.attribute_distribution"),
        "series.pct_change_s": lambda: seconds("cli.pct_change"),
        "panel.build_s": lambda: seconds("panel.build_panel"),
        "panel.rows_emitted": lambda: info("rows", "panel.build_panel"),
        "panel.write_s": lambda: seconds("panel.write_panel_csv"),
        "panel.bytes_written": lambda: info("bytes", "panel.write_panel_csv"),
        "panel.screen_s": lambda: seconds("panel.stationarity_screen"),
        "econometrics.adf_calls": lambda: counter("panel.adf_test").calls,
        "econometrics.adf_s": lambda: counter("panel.adf_test").seconds,
        "econometrics.ols_calls": lambda: counter("study.ols_fit").calls,
        "econometrics.ols_s": lambda: counter("study.ols_fit").seconds,
        "study.suite_s": lambda: seconds("study.run_suite"),
        "study.precheck_s": lambda: seconds("study.correlation_precheck"),
        "cli.total_s": lambda: seconds("cli.main"),
        "cli.self_s": cli_self,
        "cli.input_passes": lambda: len(spans(*passes)),
    }
    out = {}
    for name, formula in formulas.items():
        try:
            out[name] = {"value": formula()}
        except _Missing as exc:
            out[name] = {"value": None, "reason": str(exc)}
    return out
