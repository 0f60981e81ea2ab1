import json
from pathlib import Path

import pytest

import layers
import run

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(run.workloads.WORKLOADS)


def test_summary_shares_add_up_to_coverage():
    # a 100-unit pass: parse 20, a stage holding classify 30 and record 10
    # plus 5 of its own, a drain holding one classify and one record
    spans = [
        (1, None, "parse_document", "main", 0, 20),
        (3, 2, "Classifier.classify", "main", 20, 50),
        (4, 2, "Recorder.record", "main", 50, 60),
        (2, None, "ClassifyStage.run", "main", 20, 65),
        (6, 5, "Classifier.classify", "main", 70, 80),
        (7, 5, "Recorder.record", "main", 80, 85),
        (5, None, "DrainStage.run", "main", 65, 90),
    ]
    metrics = layers.summarize(spans, {}, {}, wall_ns=100, dtd_count=1, size_end=0)
    shares = sum(metrics[f"{layer}.share"] for layer in ("parse", "classify", "record", "pipeline", "drain"))
    assert metrics["trace.coverage"] == pytest.approx(0.9)
    assert shares == pytest.approx(metrics["trace.coverage"])
    assert metrics["classify.share"] == pytest.approx(0.4)
    assert metrics["drain.examined_per_drain"] == 1
    assert metrics["drain.recovered_ratio"] == 1.0
    assert metrics["drain.ms_per_drain"] == pytest.approx(25 / 1e6)
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER}


def test_unreached_layers_report_zero():
    metrics = layers.summarize([], {}, {}, wall_ns=1, dtd_count=1, size_end=0)
    assert metrics["http.decode_us"] == 0.0
    assert metrics["serve.queue_wait_p95_ms"] == 0.0
    assert metrics["evolve.count"] == 0
