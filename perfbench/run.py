"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_steady --seed 1 --seconds 12 --trace 0

Workloads: ``batch_steady``, ``batch_drift``, ``serve_mixed`` (see
``README.md`` for why each exists and what every metric means).

The inputs are generated from ``--seed`` before anything is timed; the
program only ever receives the generated XML strings.  The run then
measures for ``--seconds``:

- batch workloads repeat a pass in a fresh process each time (set-up,
  untimed warm-up, the write pass, the read pass) and check every
  pass's outcomes, final DTDs and repository size against a reference
  run of the same inputs with every fast path off;
- ``serve_mixed`` starts the daemon in its own process (several times,
  for the set-up time), plays an open-loop schedule of deposits and
  reads against it, and checks the served results against a batch
  replay of the applied deposit order.

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped; their times are program time at a reference machine speed,
measured beside a fixed routine (``yardstick.py``), so that the slow
spells of a shared machine do not read as a slower program.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer ledger instead.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose check fails
reports ``"correct": false`` without numbers and exits with status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import layers  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

#: every end-to-end metric, with its unit (BENCHMARK.json lists the same)
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("docs_per_s", "1/s"),
    ("write_ms", "ms"),
    ("read_ms", "ms"),
]

#: a served request slower than this (from its due time) misses the
#: service-level objective; it is the daemon's own ``trace_slow_ms``
SLO_SECONDS = 0.250
#: daemon starts per ``serve_mixed`` run (odd); ``setup_s`` is their median
SERVE_STARTS = 7
#: seconds between two readings of the daemon's CPU time while it serves
POLL_SECONDS = 1.0
#: batch passes per run, at least (the metrics are medians over passes)
MIN_PASSES = 3
#: no child process may run longer than this, seconds
CHILD_TIMEOUT = 150


class RunFailed(Exception):
    """The run cannot report numbers: a check failed or a process died."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _batch_pass(spec_path: str, workdir: str, traced: bool) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "batch_pass.py"), spec_path, workdir, str(int(traced))],
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=str(ROOT),
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"batch pass ran longer than {CHILD_TIMEOUT}s") from None
    if proc.returncode != 0:
        raise RunFailed(f"batch pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Server:
    """The daemon process: started on construction, ready when it has
    printed its port, stopped (and its result read) by :meth:`stop`."""

    def __init__(self, spec_path: str, workdir: str, traced: bool):
        tag = uuid.uuid4().hex[:8]
        self.result_path = os.path.join(workdir, f"serve-{tag}.json")
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve_proc.py"),
                spec_path, workdir, str(int(traced)), self.result_path,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=_child_env(),
            cwd=str(ROOT),
        )
        try:
            line = self._readline(CHILD_TIMEOUT)
            self.port = json.loads(line)["port"]
        except (ValueError, KeyError, RunFailed):
            self.kill()
            raise RunFailed(f"daemon did not start:\n{self._log_tail()}") from None
        self.ready_s = time.perf_counter() - started

    def _readline(self, timeout: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RunFailed("daemon start timed out")
        return self.proc.stdout.readline()

    def usage(self) -> dict:
        """The daemon's CPU time per thread group and the yardstick runs
        in its process since the last reading (``serve_proc._usage``)."""
        self.proc.stdin.write("usage\n")
        self.proc.stdin.flush()
        return json.loads(self._readline(CHILD_TIMEOUT))

    def _log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8") as handle:
            return handle.read()[-3000:]

    def stop(self) -> dict:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            code = self.proc.wait(timeout=CHILD_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            raise RunFailed(f"daemon did not stop:\n{self._log_tail()}") from None
        finally:
            self.proc.stdout.close()
            self._log.close()
        if code != 0:
            raise RunFailed(f"daemon exited {code}:\n{self._log_tail()}")
        with open(self.result_path, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        self._log.close()


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def _check_pass(report: dict, reference: dict, first: dict) -> None:
    """A pass must reproduce the fast-paths-off reference: outcomes,
    final DTDs and repository size, and the sampled reads; every read
    must also match the run's first pass."""
    expected = dict(reference, reads=first["reads"])
    for key in ("writes", "state", "read_sample", "reads"):
        if report[key] != expected[key]:
            raise RunFailed(
                f"pass {key} differ from the reference:\n"
                f"  got       {json.dumps(report[key])[:600]}\n"
                f"  expected  {json.dumps(expected[key])[:600]}"
            )


def _fastest(passes, key: str):
    """Each document's fastest latency over the passes."""
    return [min(latencies) for latencies in zip(*(p[key] for p in passes))]


def run_batch(spec: dict, seconds: float, traced: bool, workdir: str, lines: list):
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    reference = workloads.reference(spec, os.path.join(workdir, "reference.sqlite"))
    plain, spanned = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(plain) < MIN_PASSES:
        for with_trace in (False, True) if traced else (False,):
            report = _batch_pass(spec_path, workdir, with_trace)
            _check_pass(report, reference, (plain or [report])[0])
            (spanned if with_trace else plain).append(report)
    writes, reads = len(spec["writes"]), len(spec["reads"])
    attempted = (writes + reads) * (len(plain) + len(spanned))
    lines.append(
        f"  {len(plain) + len(spanned)} passes in fresh processes, {writes} writes + "
        f"{reads} reads each; every pass matched the fast-paths-off reference "
        f"({reference['state']['evolutions']} evolutions, "
        f"repository {reference['state']['repository']})"
    )
    if traced:
        overhead = min(p["wall_s"] for p in spanned) / min(p["wall_s"] for p in plain)
        per_pass = []
        for report in spanned:
            with open(report["spans_path"], encoding="utf-8") as handle:
                dump = json.load(handle)
            per_pass.append(
                layers.summarize(
                    dump["spans"], dump["notes"], dump["perf"],
                    wall_ns=dump["wall_ns"], dtd_count=dump["dtd_count"],
                    size_end=dump["size_end"],
                    extra={"trace.overhead_ratio": overhead},
                )
            )
        metrics = {
            name: statistics.median(values[name] for values in per_pass)
            for name, _unit in layers.PER_LAYER
        }
        return metrics, attempted, 0
    doc_ms, read_ms = _fastest(plain, "doc_ms"), _fastest(plain, "read_ms")
    lines.append(
        f"  each document's latency is its fastest of {len(plain)} passes; "
        f"best whole pass {max(writes / p['wall_s'] for p in plain):.1f} docs/s (unscaled)"
    )
    _latency("doc", doc_ms, lines)
    _latency("classify", read_ms, lines)
    every = [ms for p in plain for ms in p["doc_ms"] + p["read_ms"]]
    slow = sum(ms > SLO_SECONDS * 1e3 for ms in every)
    lines.append(
        f"  error_rate 0 (0/{attempted})   slo_miss_rate {slow / len(every):.6f} "
        f"({slow} of {len(every)} over {SLO_SECONDS * 1e3:.0f} ms)"
    )
    # each pass at the reference speed (yardstick.py), then the median
    # over the passes; set-up is scaled by its pass's write-pass speed
    scaled = []
    for p in plain:
        write_scale = yardstick.scale(p["doc_yard_ms"])
        read_scale = yardstick.scale(p["read_yard_ms"])
        write_s = sum(p["doc_ms"]) / 1e3 * write_scale
        read_s = sum(p["read_ms"]) / 1e3 * read_scale
        scaled.append(
            {
                "setup_s": p["setup_s"] * write_scale,
                "docs_per_s": (writes + reads) / (write_s + read_s),
                "write_ms": write_s * 1e3 / writes,
                "read_ms": read_s * 1e3 / reads,
                "yard_ms": yardstick.REFERENCE_MS / write_scale,
            }
        )
    median = {key: statistics.median(s[key] for s in scaled) for key in scaled[0]}
    lines.append(
        f"  machine speed: the yardstick took {median['yard_ms']:.4f} ms in the median pass "
        f"(reference {yardstick.REFERENCE_MS:g} ms); set-up unscaled: "
        f"median {statistics.median(p['setup_s'] for p in plain):.4f} s"
    )
    metrics = {
        "setup_s": median["setup_s"],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "docs_per_s": median["docs_per_s"],
        "write_ms": median["write_ms"],
        "read_ms": median["read_ms"],
    }
    return metrics, attempted, 0


def _setup(values, lines: list) -> float:
    """The median of a run's set-up times at the reference speed,
    printed with the fastest and the slowest."""
    lines.append(
        f"  set-up at the reference speed n={len(values)}: min {min(values):.4f} s, "
        f"median {statistics.median(values):.4f} s, max {max(values):.4f} s"
    )
    return statistics.median(values)


def _latency(what: str, values, lines: list) -> None:
    """Print a latency series' median, its p90 and the highest
    percentile that keeps 10 samples beyond it, with sample counts."""
    try:
        median, p90 = stats.percentile(values, 50), stats.tail(values, 90)
    except stats.TooFewSamples as error:
        raise RunFailed(f"{what} latency: {error}; measure longer") from None
    top = stats.highest_supported(values)
    line = (
        f"  {what:<8} latency n={median.count}: p50 {median.value:.4f} ms, "
        f"p90 {p90.value:.4f} ms ({p90.beyond} beyond)"
    )
    if top.q > p90.q:
        line += f", p{top.q:g} {top.value:.4f} ms ({top.beyond} beyond)"
    lines.append(line)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def _schedule(spec: dict):
    deposits = [
        loadgen.json_request(due, "deposit", "/deposit", {"xml": xml})
        for due, xml in zip(
            loadgen.fixed_rate(len(spec["writes"]), spec["deposit_rate"]), spec["writes"]
        )
    ]
    rate = spec["classify_rate"]
    reads = [
        loadgen.json_request(due, "classify", "/classify", {"xml": xml})
        for due, xml in zip(
            loadgen.fixed_rate(len(spec["reads"]), rate, offset=0.5 / rate), spec["reads"]
        )
    ]
    return loadgen.merge(deposits, reads)


def _connections() -> int:
    return max(1, min(os.cpu_count() or 1, 4))


def _play(server: "Server", spec: dict):
    """Warm the daemon up, then play the schedule while reading the
    daemon's usage every :data:`POLL_SECONDS`."""
    warmup = [
        loadgen.json_request(0.0, "classify", "/classify", {"xml": xml})
        for xml in spec["warmup"]
    ]
    asyncio.run(loadgen.drive("127.0.0.1", server.port, warmup, _connections()))
    readings = [server.usage()]

    async def measured():
        loop = asyncio.get_running_loop()
        play = asyncio.ensure_future(
            loadgen.drive("127.0.0.1", server.port, _schedule(spec), _connections())
        )
        while not play.done():
            await asyncio.wait([play], timeout=POLL_SECONDS)
            readings.append(await loop.run_in_executor(None, server.usage))
        return play.result()

    return asyncio.run(measured()), readings


def _scaled_cpu(readings) -> dict:
    """CPU seconds per thread group between the first and the last of
    ``readings``, each interval at the reference speed of the yardstick
    runs made during it (yardstick.py)."""
    total = dict.fromkeys(readings[0]["cpu_s"], 0.0)
    times = readings[0]["yard_ms"]
    for before, after in zip(readings, readings[1:]):
        # the last reading can follow the one before too closely for a
        # run of its own; it then takes the interval before's speed
        times = after["yard_ms"] or times
        scale = yardstick.scale(times)
        for group in total:
            total[group] += (after["cpu_s"][group] - before["cpu_s"][group]) * scale
    return total


def _check_serve(spec: dict, results, report: dict, workdir: str) -> int:
    """Raise :class:`RunFailed` unless the served run is consistent;
    returns how many requests failed (non-200)."""
    from repro.xmltree.parser import parse_document

    answered = [(r, json.loads(r.body)) for r in sorted(results, key=lambda r: r.sent) if r.status == 200]
    deposits = sorted(
        ((r, body) for r, body in answered if r.request.kind == "deposit"),
        key=lambda pair: pair[1]["applied_index"],
    )
    applied = [body["applied_index"] for _r, body in deposits]
    if applied != list(range(1, len(deposits) + 1)) or report["applied"] != len(deposits):
        raise RunFailed("applied_index is not contiguous from 1 to the deposits applied")
    for connection in {r.connection for r, _body in answered}:
        versions = [body["snapshot_version"] for r, body in answered if r.connection == connection]
        if any(b < a for a, b in zip(versions, versions[1:])):
            raise RunFailed(f"snapshot versions went backwards on connection {connection}")
    # a store of its own: a traced run checks two daemons in one workdir
    replay_path = os.path.join(workdir, f"replay-{uuid.uuid4().hex[:8]}.sqlite")
    replay = workloads.build_source(spec, store_path=replay_path)
    try:
        outcomes = replay.process_many(
            parse_document(json.loads(r.request.body)["xml"]) for r, _body in deposits
        )
        state = workloads.final_state(replay)
    finally:
        workloads.close_source(replay)
        os.remove(replay_path)
    served = [
        [body["dtd"], repr(body["similarity"]), body["evolved"], body["recovered"]]
        for _r, body in deposits
    ]
    if served != [workloads.write_view(outcome) for outcome in outcomes]:
        raise RunFailed("served deposit outcomes differ from a batch replay")
    if state != report["state"]:
        raise RunFailed(
            "served final DTD set differs from a batch replay:\n"
            f"  served  {json.dumps(report['state'])[:600]}\n"
            f"  replay  {json.dumps(state)[:600]}"
        )
    return sum(r.status != 200 for r in results)


def _serve_once(spec_path, spec, workdir, traced):
    """One daemon playing the schedule once; also returns its set-up
    time at the reference speed and the CPU seconds per thread group it
    spent on the schedule (warm-up left out), at the reference speed."""
    server = Server(spec_path, workdir, traced)
    try:
        setup_s = server.ready_s * yardstick.scale(server.usage()["yard_ms"])
        results, readings = _play(server, spec)
    except BaseException:
        server.kill()
        raise
    report = server.stop()
    failed = _check_serve(spec, results, report, workdir)
    if loadgen.backlog_grew(results, len(spec["writes"]) / spec["deposit_rate"]):
        raise RunFailed("the open loop fell behind: late requests piled up over the run")
    return setup_s, results, report, failed, _scaled_cpu(readings)


def run_serve(spec: dict, seconds: float, traced: bool, workdir: str, lines: list):
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    if traced:
        _, plain_results, _, failed_plain, plain_cpu = _serve_once(
            spec_path, spec, workdir, False
        )
        _, results, report, failed, cpu = _serve_once(spec_path, spec, workdir, True)
        plain_cpu_s, cpu_s = sum(plain_cpu.values()), sum(cpu.values())
        lag = [r.lag * 1e3 for r in results]
        try:
            lag_tail = stats.tail(lag, layers.TAIL_Q)
            wait = layers.queue_waits_ms(report["service_spans"])
            wait_tail = stats.tail(wait, layers.TAIL_Q)
        except stats.TooFewSamples as error:
            raise RunFailed(f"traced serve run: {error}; measure longer") from None
        for what, values, tail in (
            ("generator lag", lag, lag_tail),
            ("writer queue wait", wait, wait_tail),
        ):
            lines.append(
                f"  {what} n={tail.count}: p50 {stats.percentile(values, 50).value:.4f} ms, "
                f"p{tail.q:g} {tail.value:.4f} ms ({tail.beyond} beyond)"
            )
        metrics = layers.summarize(
            report["spans"], report["notes"], report["perf"],
            wall_ns=report["request_ns"], dtd_count=report["dtd_count"],
            size_end=report["size_end"], service_spans=report["service_spans"],
            extra=dict(
                report["extra"],
                **{
                    "gen.lag_p95_ms": lag_tail.value,
                    "trace.overhead_ratio": cpu_s / plain_cpu_s,
                },
            ),
        )
        lines.append(
            f"  one untraced and one traced daemon, {len(results)} requests each; "
            f"both matched a batch replay; daemon cpu at the reference speed "
            f"{plain_cpu_s:.2f}s untraced, {cpu_s:.2f}s traced"
        )
        return metrics, len(results) + len(plain_results), failed + failed_plain

    def idle_start() -> float:
        server = Server(spec_path, workdir, False)
        try:
            setup_s = server.ready_s * yardstick.scale(server.usage()["yard_ms"])
        except BaseException:
            server.kill()
            raise
        server.stop()
        return setup_s

    # the extra starts go on both sides of the measured one, so that
    # the set-up time is not taken from a single moment of the machine
    ready = [idle_start() for _ in range(SERVE_STARTS // 2)]
    setup_s, results, report, failed, cpu = _serve_once(spec_path, spec, workdir, False)
    ready.append(setup_s)
    ready += [idle_start() for _ in range(SERVE_STARTS // 2)]
    deposit_ms = [r.latency * 1e3 for r in results if r.request.kind == "deposit"]
    classify_ms = [r.latency * 1e3 for r in results if r.request.kind == "classify"]
    lag = [r.lag * 1e3 for r in results]
    window = max(r.done for r in results) - min(r.due for r in results)
    served = sum(r.status == 200 for r in results)
    deposits = sum(r.status == 200 and r.request.kind == "deposit" for r in results)
    slow = sum(r.status != 200 or r.latency > SLO_SECONDS for r in results)
    lines.append(
        f"  open loop: {spec['deposit_rate']:g} deposits/s + {spec['classify_rate']:g} "
        f"classifies/s over {_connections()} connections for {window:.2f}s; "
        f"{report['state']['evolutions']} evolutions, {report['extra']['holder.publishes']} "
        "snapshot publishes; matched a batch replay"
    )
    top_lag = stats.highest_supported(lag)
    lines.append(
        f"  latencies from due time (unscaled); generator lag n={top_lag.count}: "
        f"p{top_lag.q:g} {top_lag.value:.3f} ms ({top_lag.beyond} beyond)"
    )
    _latency("deposit", deposit_ms, lines)
    _latency("classify", classify_ms, lines)
    lines.append(
        f"  served_per_s {served / window:.2f} (offered load)   error_rate "
        f"{failed / len(results):.6f} ({failed}/{len(results)})   slo_miss_rate "
        f"{slow / len(results):.6f} ({slow} non-200 or over {SLO_SECONDS * 1e3:.0f} ms)"
    )
    lines.append(
        "  daemon cpu at the reference speed: "
        + ", ".join(f"{group} {seconds:.3f}s" for group, seconds in cpu.items())
    )
    metrics = {
        "setup_s": _setup(ready, lines),
        "peak_rss_mb": report["rss_mb"],
        # answers per daemon CPU-second: the offered rate is fixed, so
        # answers per wall second would only echo the load generator
        "docs_per_s": served / sum(cpu.values()),
        "write_ms": cpu["writer"] * 1e3 / deposits,
        "read_ms": cpu["reader"] * 1e3 / (served - deposits),
    }
    return metrics, len(results), failed


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)
    serve = args.workload == "serve_mixed"
    # serve in trace mode plays the schedule twice (untraced, traced)
    schedule_seconds = args.seconds / 2 if serve and traced else args.seconds
    spec = workloads.make_spec(args.workload, args.seed, schedule_seconds)
    workdir = ROOT / ".perfbench_work" / uuid.uuid4().hex
    workdir.mkdir(parents=True)
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
    try:
        runner = run_serve if serve else run_batch
        metrics, attempted, failed = runner(spec, args.seconds, traced, str(workdir), lines)
    except RunFailed as error:
        print("\n".join(lines))
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    units = dict(layers.PER_LAYER if traced else END_TO_END)
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>14.6f} {units[name]}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
