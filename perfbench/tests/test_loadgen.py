import asyncio

import pytest

import loadgen

SERVICE_SECONDS = 0.05


async def _slow_server(reader, writer):
    """Answers each request after SERVICE_SECONDS, one at a time."""
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode().split("\r\n"):
                if line.lower().startswith("content-length:"):
                    length = int(line.split(":")[1])
            await reader.readexactly(length)
            await asyncio.sleep(SERVICE_SECONDS)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _play(schedule, connections):
    server = await asyncio.start_server(_slow_server, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await loadgen.drive("127.0.0.1", port, schedule, connections)
    finally:
        server.close()
        await server.wait_closed()


def test_latency_is_measured_from_the_due_time():
    # four requests all due at once on one connection: each waits for the
    # ones before it, and that wait is part of its latency
    schedule = [loadgen.json_request(0.0, "read", "/x", {}) for _ in range(4)]
    results = sorted(asyncio.run(_play(schedule, 1)), key=lambda r: r.sent)
    assert [r.status for r in results] == [200] * 4
    for index, result in enumerate(results):
        service = result.done - result.sent
        assert service == pytest.approx(SERVICE_SECONDS, abs=0.04)
        assert result.lag == pytest.approx(index * SERVICE_SECONDS, abs=0.04 * (index + 1))
        assert result.latency == pytest.approx(result.lag + service)
        assert result.latency >= (index + 1) * SERVICE_SECONDS * 0.9


def test_requests_leave_on_schedule_when_connections_are_free():
    schedule = loadgen.merge(
        [loadgen.json_request(t, "a", "/x", {}) for t in loadgen.fixed_rate(3, 10.0)],
        [loadgen.json_request(t, "b", "/x", {}) for t in loadgen.fixed_rate(3, 10.0, 0.05)],
    )
    assert [r.due for r in schedule] == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2, 0.25])
    results = asyncio.run(_play(schedule, 2))
    assert len(results) == 6
    assert max(r.lag for r in results) < 0.03


def _results(lags, duration):
    request = loadgen.Request(0.0, "a", "/x", b"")
    step = duration / len(lags)
    return [
        loadgen.Result(request, 0, i * step, i * step + lag, i * step + lag + 0.001, 200, b"")
        for i, lag in enumerate(lags)
    ]


def test_backlog_growth_is_detected_but_a_recovered_stall_is_not():
    steady = [0.001] * 100
    growing = [0.001 + i * 0.01 for i in range(100)]
    stall = [0.001] * 80 + [0.2] * 5 + [0.001] * 15
    assert loadgen.backlog_grew(_results(growing, 10.0), 10.0)
    assert not loadgen.backlog_grew(_results(steady, 10.0), 10.0)
    assert not loadgen.backlog_grew(_results(stall, 10.0), 10.0)
