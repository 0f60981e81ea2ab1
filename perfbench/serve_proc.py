"""The daemon under test, in a process of its own.

Usage: ``python3 serve_proc.py SPEC WORKDIR TRACE RESULT`` (``run.py``
starts it).  It builds the spec's ``XMLSource`` on a sqlite store in
``WORKDIR``, starts ``ReproService`` through ``ServiceRunner`` and
prints one JSON line ``{"port": N}`` once the socket listens.  It then
serves, answering each ``usage`` line on standard input with one JSON
line (see :func:`_usage`), until any other line (or end of file)
arrives; it then shuts the service down gracefully and writes
``RESULT``: the final DTD set,
the engine's counters and peak RSS, and — with ``TRACE`` 1 —
the span ledger plus the service's own ``queue.wait``/``write.apply``
spans (its request tracing runs at a 100% sample rate in that case).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import yardstick

#: yardstick runs right after the socket listens (they scale set-up)
START_REPS = 20
#: seconds between two yardstick runs while the daemon serves
TICK_SECONDS = 0.05
#: the daemon's thread groups, by thread-name prefix
THREAD_GROUPS = ("writer", "reader", "loop")


class Yardstick:
    """Times the yardstick every :data:`TICK_SECONDS` on a thread of its
    own, so that its runs are spread over the time the daemon serves."""

    def __init__(self) -> None:
        self._times = yardstick.sample(START_REPS)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._tick, name="perfbench-yardstick")
        self._thread.start()

    def _tick(self) -> None:
        while not self._stop.wait(TICK_SECONDS):
            # the first run after a sleep meets cold caches
            yardstick.timed()
            took = yardstick.timed()
            with self._lock:
                self._times.append(took)

    def take(self):
        """The runs' milliseconds since the last call."""
        with self._lock:
            times, self._times = self._times, []
        return times

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _usage(ticker: Yardstick) -> dict:
    """CPU seconds each group of the daemon's threads has used so far,
    and the yardstick's times since the last usage reading."""
    cpu_s = dict.fromkeys(THREAD_GROUPS, 0.0)
    for thread in threading.enumerate():
        for group in THREAD_GROUPS:
            if thread.name.startswith(f"repro-serve-{group}"):
                clock = time.pthread_getcpuclockid(thread.ident)
                cpu_s[group] += time.clock_gettime(clock)
    return {"cpu_s": cpu_s, "yard_ms": ticker.take()}


def main(argv) -> int:
    spec_path, workdir, trace, result_path = argv[0], argv[1], argv[2] == "1", argv[3]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    import workloads
    from repro.obs.tracing import Tracer
    from repro.serve import ServeConfig, ServiceRunner

    ledger = tracer = None
    if trace:
        import layers
        from ledger import Ledger

        ledger = Ledger()
        layers.install(ledger, serve=True)
        tracer = Tracer()
    store_path = os.path.join(workdir, f"serve-{os.getpid()}.sqlite")
    source = workloads.build_source(spec, store_path=store_path)
    config = ServeConfig(
        # one reader: readers share the interpreter lock, and on a 2-CPU
        # machine a second one burned ~25% more CPU on lock hand-offs and
        # doubled the stalls after each snapshot publish
        reader_threads=1,
        trace_sample=1.0 if trace else 0.0,
    )
    runner = ServiceRunner(source, config, tracer=tracer).start()
    print(json.dumps({"port": runner.port}), flush=True)
    ticker = Yardstick()
    for line in sys.stdin:
        if line.strip() != "usage":
            break
        print(json.dumps(_usage(ticker)), flush=True)
    ticker.stop()
    runner.stop()

    service = runner.service
    rejections = sum(
        value
        for key, value in service.registry.as_dict().items()
        if key.startswith("repro_serve_rejections_total")
    )
    report = {
        "state": workloads.final_state(source),
        "applied": service.applied_writes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "extra": {"serve.rejections": rejections, "holder.publishes": service.holder.publishes},
    }
    if ledger is not None:
        ledger.uninstall()
        records = tracer.records()
        report.update(
            spans=ledger.spans,
            notes=dict(ledger.notes),
            perf=source.perf_snapshot(),
            dtd_count=len(source.dtd_names()),
            size_end=len(source.repository),
            service_spans=[
                (name, start, end)
                for _id, _parent, name, start, end, _attrs in records
                if name in ("queue.wait", "write.apply")
            ],
            request_ns=sum(
                end - start
                for _id, parent, name, start, end, _attrs in records
                if parent is None and name.startswith("request.")
            ),
        )
    workloads.close_source(source)
    os.remove(store_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
