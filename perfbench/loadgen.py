"""Open-loop HTTP load: requests go out on a fixed schedule.

Each request has a *due* time.  A dispatcher releases requests at their
due times whatever the service is doing, and a fixed set of keep-alive
connections sends them in release order, one request in flight per
connection.  When every connection is busy, released requests wait on
the client side, so a stalled service keeps accumulating late requests
the way independent users would.  Every latency is measured from the
due time, not from the moment the request left, so that wait counts.

How late a request left (``sent - due``) is the generator's *lag*; a lag
that keeps growing over the run means the service is not keeping up
and the run says nothing about latency at this rate.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import List, NamedTuple, Optional, Sequence

#: seconds between opening the connections and the first due time
START_DELAY = 0.05
#: how far, in seconds, the last quarter's median lag must also exceed
#: the first quarter's before :func:`backlog_grew` calls it a backlog
BACKLOG_SLACK = 0.05


class Request(NamedTuple):
    #: seconds after the start of the run
    due: float
    kind: str
    path: str
    body: bytes


class Result(NamedTuple):
    request: Request
    connection: int
    #: absolute clock readings, seconds
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from due time to the complete response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the request left after its due time."""
        return self.sent - self.due


def fixed_rate(count: int, rate: float, offset: float = 0.0) -> List[float]:
    """``count`` due times evenly spaced at ``rate`` per second."""
    return [offset + index / rate for index in range(count)]


def json_request(due: float, kind: str, path: str, payload) -> Request:
    return Request(due, kind, path, json.dumps(payload).encode("utf-8"))


def merge(*streams: Sequence[Request]) -> List[Request]:
    """One schedule in due order (ties keep stream order)."""
    merged = [request for stream in streams for request in stream]
    merged.sort(key=lambda request: request.due)
    return merged


def _encode(request: Request) -> bytes:
    head = (
        f"POST {request.path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(request.body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + request.body


async def _read_response(reader: asyncio.StreamReader):
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def drive(
    host: str,
    port: int,
    schedule: Sequence[Request],
    connections: int,
) -> List[Result]:
    """Play ``schedule`` against ``host:port``; results in completion order."""
    streams = [await asyncio.open_connection(host, port) for _ in range(connections)]
    released: "asyncio.Queue[Optional[Request]]" = asyncio.Queue()
    results: List[Result] = []
    start = time.perf_counter() + START_DELAY

    async def dispatch() -> None:
        for request in schedule:
            delay = start + request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            released.put_nowait(request)
        for _ in streams:
            released.put_nowait(None)

    async def send(index: int, reader, writer) -> None:
        while True:
            request = await released.get()
            if request is None:
                return
            sent = time.perf_counter()
            writer.write(_encode(request))
            await writer.drain()
            status, body = await _read_response(reader)
            results.append(
                Result(request, index, start + request.due, sent, time.perf_counter(), status, body)
            )

    try:
        await asyncio.gather(
            dispatch(),
            *(send(index, reader, writer) for index, (reader, writer) in enumerate(streams)),
        )
    finally:
        for _reader, writer in streams:
            writer.close()
        for _reader, writer in streams:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return results


def backlog_grew(results: Sequence[Result], duration: float) -> bool:
    """True when the last quarter of the run left much later than the
    first: its median lag exceeds both four times the first quarter's
    and the first quarter's plus :data:`BACKLOG_SLACK`.  Medians let a
    short stall that the service recovers from pass; a service that
    cannot keep up falls further behind with every request."""
    if not results:
        return False
    origin = min(result.due for result in results)
    first = [r.lag for r in results if r.due - origin < duration / 4]
    last = [r.lag for r in results if r.due - origin >= 3 * duration / 4]
    if not first or not last:
        return False
    early = statistics.median(first)
    late = statistics.median(last)
    return late > 4 * early and late > early + BACKLOG_SLACK
