"""Which public functions make up each layer, and the per-layer metrics.

:func:`install` puts :class:`ledger.Ledger` wrappers on the program's
public entry points, one span name per function, and :data:`GROUPS`
folds span names into layers.  :func:`summarize` turns a traced run's
spans, the engine's own counters (``XMLSource.perf_snapshot()``) and
the serve-side extras into the metrics listed in :data:`PER_LAYER`.

A layer a workload never reaches reports 0 (no HTTP in batch, no
evolution phases when nothing evolved).  ``*.share`` metrics are self
time over the run's end-to-end time, so they add up to
``trace.coverage``; ``ms_per_*`` metrics are inclusive (a drain's time
includes the documents it re-classifies).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import stats
from ledger import Ledger, Span, Total, nested_calls, totals

#: span name -> layer
GROUPS = {
    "parse_document": "parse",
    "Classifier.classify": "classify",
    "ClassificationResult.ranking": "classify",
    "Recorder.record": "record",
    "ClassifyStage.run": "pipeline",
    "RecordStage.run": "pipeline",
    "CheckStage.run": "check",
    "EvolveStage.run": "evolve",
    "evolve_dtd": "evolve",
    "DrainStage.run": "drain",
    "Repository.add": "store",
    "Repository.add_many": "store",
    "Repository.drain": "store",
    "Repository.candidates": "store",
    "Repository.fetch": "store",
    "Repository.remove": "store",
    "Repository.__len__": "store",
    "json_body": "http",
    "json_response": "http",
    "SnapshotHolder.refresh_from": "holder",
    "ClassifierSnapshot.build_classifier": "holder",
}

#: every per-layer metric, with its unit (BENCHMARK.json lists the same)
PER_LAYER: List[Tuple[str, str]] = [
    ("parse.us_per_doc", "us"),
    ("parse.share", "ratio"),
    ("classify.us_per_doc", "us"),
    ("classify.share", "ratio"),
    ("classify.validity_shortcut_ratio", "ratio"),
    ("classify.cache_hit_ratio", "ratio"),
    ("classify.dp_cells_per_doc", "count"),
    ("classify.bound_skip_ratio", "ratio"),
    ("record.us_per_doc", "us"),
    ("record.share", "ratio"),
    ("pipeline.us_per_doc", "us"),
    ("pipeline.share", "ratio"),
    ("check.us_per_doc", "us"),
    ("evolve.count", "count"),
    ("evolve.ms_per_evolution", "ms"),
    ("evolve.share", "ratio"),
    ("evolve.mine_ms", "ms"),
    ("evolve.build_ms", "ms"),
    ("evolve.rewrite_ms", "ms"),
    ("evolve.restrict_ms", "ms"),
    ("evolve.element_skip_ratio", "ratio"),
    ("evolve.rule_memo_hit_ratio", "ratio"),
    ("drain.count", "count"),
    ("drain.ms_per_drain", "ms"),
    ("drain.share", "ratio"),
    ("drain.examined_per_drain", "count"),
    ("drain.recovered_ratio", "ratio"),
    ("drain.prune_skip_ratio", "ratio"),
    ("store.add_us", "us"),
    ("store.adds", "count"),
    ("store.share", "ratio"),
    ("store.index_rows_per_drain", "count"),
    ("store.batch_commits", "count"),
    ("store.size_end", "count"),
    ("http.decode_us", "us"),
    ("http.encode_us", "us"),
    ("serve.reader_classify_us", "us"),
    ("serve.writer_apply_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.rejections", "count"),
    ("holder.refresh_us", "us"),
    ("holder.publishes", "count"),
    ("serve.reader_rebuilds", "count"),
    ("gen.lag_p95_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]

_READER_THREAD = "repro-serve-reader"
#: the tail percentile of queue wait and generator lag: a traced serve
#: run plays half the schedule (about 250 deposits), too few for a p99
#: with ten samples beyond it
TAIL_Q = 95.0


def install(ledger: Ledger, serve: bool = False) -> None:
    """Wrap every layer's public functions (``serve`` adds the daemon's)."""
    from repro.classification.classifier import ClassificationResult, Classifier
    from repro.classification.repository import Repository
    from repro.core import evolution
    from repro.core.recorder import Recorder
    from repro.pipeline import stages
    from repro.xmltree import parser

    ledger.wrap_function(parser, "parse_document", "parse_document")
    ledger.wrap_method(Classifier, "classify", "Classifier.classify")
    # the full ranking is realized lazily, outside ``classify``, when a
    # caller reads it (every serve response does)
    ledger.wrap_method(ClassificationResult, "ranking", "ClassificationResult.ranking")
    ledger.wrap_method(Recorder, "record", "Recorder.record")
    for stage in ("ClassifyStage", "RecordStage", "CheckStage", "EvolveStage", "DrainStage"):
        ledger.wrap_method(getattr(stages, stage), "run", f"{stage}.run")
    ledger.wrap_function(
        evolution,
        "evolve_dtd",
        "evolve_dtd",
        note=lambda result, _args: {"evolve.declarations": len(result.old_dtd)},
    )
    for method in ("add", "add_many", "drain", "candidates", "fetch", "remove", "__len__"):
        ledger.wrap_method(Repository, method, f"Repository.{method}")
    if serve:
        from repro.parallel.snapshot import ClassifierSnapshot
        from repro.serve import http
        from repro.serve.holder import SnapshotHolder

        ledger.wrap_function(http, "json_body", "json_body")
        ledger.wrap_function(http, "json_response", "json_response")
        ledger.wrap_method(SnapshotHolder, "refresh_from", "SnapshotHolder.refresh_from")
        ledger.wrap_method(
            ClassifierSnapshot, "build_classifier", "ClassifierSnapshot.build_classifier"
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_us(by_name: Dict[str, Total], name: str) -> float:
    """Mean self time per call of span ``name``, microseconds."""
    total = by_name.get(name)
    return _ratio(total.self_ns, total.calls) / 1e3 if total else 0.0


def _ms_percentile(values: Sequence[float], q: float) -> float:
    return stats.percentile(values, q).value if values else 0.0


def _ms_tail(values: Sequence[float]) -> float:
    """The :data:`TAIL_Q` percentile with :data:`stats.MIN_BEYOND`
    samples beyond it (raises :class:`stats.TooFewSamples` otherwise)."""
    return stats.tail(values, TAIL_Q).value if values else 0.0


def queue_waits_ms(service_spans: Sequence[Tuple[str, int, int]]) -> List[float]:
    """Milliseconds each write waited in the daemon's writer queue."""
    return [(end - start) / 1e6 for name, start, end in service_spans if name == "queue.wait"]


def summarize(
    spans: Iterable[Span],
    notes: Dict[str, int],
    perf: Dict[str, int],
    *,
    wall_ns: int,
    dtd_count: int,
    size_end: int,
    service_spans: Sequence[Tuple[str, int, int]] = (),
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The :data:`PER_LAYER` metrics of one traced run.

    ``wall_ns`` is the run's end-to-end time (batch: the traced pass;
    serve: the summed request durations).  ``service_spans`` are the
    daemon's own ``(name, start_ns, end_ns)`` phase spans (``queue.wait``
    and ``write.apply``); ``extra`` supplies the remaining serve and
    harness values (``serve.rejections``, ``holder.publishes``,
    ``gen.lag_p95_ms``, ``trace.overhead_ratio``).
    """
    spans = list(spans)
    by_name = totals(spans)
    layer_self: Dict[str, int] = {}
    for name, total in by_name.items():
        layer = GROUPS.get(name, name)
        layer_self[layer] = layer_self.get(layer, 0) + total.self_ns

    def calls(name: str) -> int:
        total = by_name.get(name)
        return total.calls if total else 0

    def inclusive_ns(name: str) -> int:
        total = by_name.get(name)
        return total.inclusive_ns if total else 0

    def per_call_us(layer: str, name: str) -> float:
        return _ratio(layer_self.get(layer, 0), calls(name)) / 1e3

    def share(layer: str) -> float:
        return _ratio(layer_self.get(layer, 0), wall_ns)

    queue_waits = queue_waits_ms(service_spans)
    applies = [(end - start) / 1e6 for name, start, end in service_spans if name == "write.apply"]
    explained = sum(layer_self.values()) + sum(queue_waits) * 1e6

    evolutions = calls("evolve_dtd")
    drains = calls("DrainStage.run")
    examined = nested_calls(spans, "DrainStage.run", "Classifier.classify")
    recovered = nested_calls(spans, "DrainStage.run", "Recorder.record")
    reader = totals(spans, where=lambda span: span[3].startswith(_READER_THREAD))

    def per_evolution_ms(timer: str) -> float:
        return _ratio(perf.get(timer, 0), evolutions) / 1e6

    cache_lookups = perf.get("structural_cache_hits", 0) + perf.get("structural_cache_misses", 0)
    memo_lookups = perf.get("mined_rule_hits", 0) + perf.get("mined_rule_misses", 0)
    extra = extra or {}

    metrics = {
        "parse.us_per_doc": per_call_us("parse", "parse_document"),
        "parse.share": share("parse"),
        "classify.us_per_doc": per_call_us("classify", "Classifier.classify"),
        "classify.share": share("classify"),
        "classify.validity_shortcut_ratio": _ratio(
            perf.get("validity_short_circuits", 0), perf.get("validations", 0)
        ),
        "classify.cache_hit_ratio": _ratio(perf.get("structural_cache_hits", 0), cache_lookups),
        "classify.dp_cells_per_doc": _ratio(
            perf.get("dp_cells", 0), perf.get("documents_classified", 0)
        ),
        "classify.bound_skip_ratio": _ratio(
            perf.get("bound_skips", 0), perf.get("documents_classified", 0) * dtd_count
        ),
        "record.us_per_doc": per_call_us("record", "Recorder.record"),
        "record.share": share("record"),
        "pipeline.us_per_doc": per_call_us("pipeline", "ClassifyStage.run"),
        "pipeline.share": share("pipeline"),
        "check.us_per_doc": per_call_us("check", "CheckStage.run"),
        "evolve.count": evolutions,
        "evolve.ms_per_evolution": _ratio(inclusive_ns("EvolveStage.run"), evolutions) / 1e6,
        "evolve.share": share("evolve"),
        "evolve.mine_ms": per_evolution_ms("evolve_mine_ns"),
        "evolve.build_ms": per_evolution_ms("evolve_build_ns"),
        "evolve.rewrite_ms": per_evolution_ms("evolve_rewrite_ns"),
        "evolve.restrict_ms": per_evolution_ms("evolve_restrict_ns"),
        "evolve.element_skip_ratio": _ratio(
            perf.get("evolution_element_skips", 0), notes.get("evolve.declarations", 0)
        ),
        "evolve.rule_memo_hit_ratio": _ratio(perf.get("mined_rule_hits", 0), memo_lookups),
        "drain.count": drains,
        "drain.ms_per_drain": _ratio(inclusive_ns("DrainStage.run"), drains) / 1e6,
        "drain.share": share("drain"),
        "drain.examined_per_drain": _ratio(examined, drains),
        "drain.recovered_ratio": _ratio(recovered, examined),
        "drain.prune_skip_ratio": _ratio(
            perf.get("drain_prune_skips", 0), perf.get("drain_prune_skips", 0) + examined
        ),
        "store.add_us": self_us(by_name, "Repository.add"),
        "store.adds": calls("Repository.add"),
        "store.share": share("store"),
        "store.index_rows_per_drain": _ratio(perf.get("index_rows", 0), drains),
        "store.batch_commits": perf.get("ingest_batch_commits", 0),
        "store.size_end": size_end,
        "http.decode_us": self_us(by_name, "json_body"),
        "http.encode_us": self_us(by_name, "json_response"),
        "serve.reader_classify_us": _ratio(
            sum(t.self_ns for n, t in reader.items() if GROUPS.get(n) == "classify"),
            reader["Classifier.classify"].calls if "Classifier.classify" in reader else 0,
        ) / 1e3,
        "serve.writer_apply_ms": _ratio(sum(applies), len(applies)),
        "serve.queue_wait_p50_ms": _ms_percentile(queue_waits, 50),
        "serve.queue_wait_p95_ms": _ms_tail(queue_waits),
        "serve.rejections": extra.get("serve.rejections", 0),
        "holder.refresh_us": self_us(by_name, "SnapshotHolder.refresh_from"),
        "holder.publishes": extra.get("holder.publishes", 0),
        "serve.reader_rebuilds": calls("ClassifierSnapshot.build_classifier"),
        "gen.lag_p95_ms": extra.get("gen.lag_p95_ms", 0.0),
        "trace.overhead_ratio": extra.get("trace.overhead_ratio", 0.0),
        "trace.coverage": _ratio(explained, wall_ns),
    }
    return metrics
