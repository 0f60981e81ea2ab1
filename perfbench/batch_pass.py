"""One batch pass of a workload, in a fresh process.

Usage: ``python3 batch_pass.py SPEC WORKDIR TRACE`` (``run.py`` starts
it; ``SPEC`` is a workload spec written as JSON, ``TRACE`` is 0 or 1).

The pass, in order:

1. set-up, timed as ``setup_s``: import the program, parse the DTDs,
   build the ``XMLSource`` (and its store);
2. warm-up, untimed: the spec's warm-up documents through a throwaway
   source, so first-call costs stay out of the measured window;
3. the write pass: ``process_many`` pulls documents from an iterator
   that parses each XML string as it is pulled, so a document's latency
   is the time from its pull to the next pull, from bytes to outcome;
4. the read pass: each read string parsed and classified with
   ``XMLSource.classify`` against the final DTD set.

Right before each document of both passes, outside its timed interval,
the pass runs and times ``yardstick`` once, so that ``run.py`` can
express the pass's times at the reference machine speed.

With ``TRACE`` 1 the write pass runs under the span ledger, which is
written to ``WORKDIR/spans-<pid>.json``.  The last line of standard
output is a JSON object with the timings and the outcome digests that
``run.py`` compares against the reference run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    spec_path, workdir, trace = argv[0], argv[1], argv[2] == "1"
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    import yardstick

    started = time.perf_counter()
    import workloads
    from repro.xmltree import parser

    store_path = os.path.join(workdir, f"pass-{os.getpid()}.sqlite")
    source = workloads.build_source(spec, store_path=store_path)
    setup_s = time.perf_counter() - started

    warm_path = os.path.join(workdir, f"warm-{os.getpid()}.sqlite")
    warm = workloads.build_source(spec, store_path=warm_path)
    warm.process_many(parser.parse_document(xml) for xml in spec["warmup"])
    for xml in spec["warmup"]:
        warm.classify(parser.parse_document(xml))
    workloads.close_source(warm)

    ledger = None
    if trace:
        import layers
        from ledger import Ledger

        ledger = Ledger()
        layers.install(ledger)

    clock = time.perf_counter_ns
    starts, ends, doc_yard = [], [], []

    def pulled():
        for xml in spec["writes"]:
            ends.append(clock())
            doc_yard.append(yardstick.timed())
            starts.append(clock())
            yield parser.parse_document(xml)

    outcomes = source.process_many(pulled())
    end = clock()
    if ledger is not None:
        ledger.uninstall()
    ends.append(end)
    doc_ns = [b - a for a, b in zip(starts, ends[1:])]
    doc_ms = [ns / 1e6 for ns in doc_ns]
    perf = source.perf_snapshot()
    size_end = len(source.repository)

    read_ms = []
    read_yard = []
    reads = []
    for xml in spec["reads"]:
        read_yard.append(yardstick.timed())
        start = clock()
        result = source.classify(parser.parse_document(xml))
        read_ms.append((clock() - start) / 1e6)
        reads.append(workloads.read_view(result))

    report = {
        "setup_s": setup_s,
        # the write pass without the yardstick's runs
        "wall_s": sum(doc_ns) / 1e9,
        "doc_ms": doc_ms,
        "read_ms": read_ms,
        "doc_yard_ms": doc_yard,
        "read_yard_ms": read_yard,
        "writes": workloads.digest([workloads.write_view(o) for o in outcomes]),
        "reads": workloads.digest(reads),
        "read_sample": reads[:: workloads.READ_SAMPLE],
        "state": workloads.final_state(source),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    workloads.close_source(source)
    for path in (store_path, warm_path):
        if os.path.exists(path):
            os.remove(path)
    if ledger is not None:
        spans_path = os.path.join(workdir, f"spans-{os.getpid()}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": ledger.spans,
                    "notes": dict(ledger.notes),
                    "perf": perf,
                    "wall_ns": sum(doc_ns),
                    "dtd_count": len(source.dtd_names()),
                    "size_end": size_end,
                },
                handle,
            )
        report["spans_path"] = spans_path
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
