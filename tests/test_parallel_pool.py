"""Persistent-pool lifecycle and exactly-once degradation accounting.

The pool half of ``repro.parallel``: engine-owned pools must survive
across batches, rebuild (new generation) when an executor breaks
mid-``process_many``, shut down idempotently via ``close()`` / the
context manager / the ``atexit`` sweep — and every degradation event
(``ShardRetried``, ``ParallelFallback``) must land in ``PerfCounters``
and ``MetricsRegistry`` exactly once, with the bus mirror reconstructing
``perf_snapshot()`` to the digit.
"""

from __future__ import annotations

import pytest

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.generators.scenarios import figure3_dtd, figure3_workload
from repro.obs.metrics import MetricsRegistry
from repro.parallel.events import ParallelFallback, ShardRetried
from repro.parallel.pool import WorkerPool, _close_live_resources
from repro.perf import PerfCounters
from repro.pipeline.events import subscribe_counters
from tests.test_parallel_faults import LethalDocument, PoisonDocument, _as


def _source(min_documents=10 ** 9):
    return XMLSource(
        [figure3_dtd()],
        EvolutionConfig(sigma=0.4, tau=0.05, min_documents=min_documents),
    )


# ----------------------------------------------------------------------
# WorkerPool lifecycle
# ----------------------------------------------------------------------


def test_pool_rejects_fewer_than_two_workers():
    with pytest.raises(ValueError):
        WorkerPool(1)


def test_pool_spins_lazily_and_counts_reuse():
    counters = PerfCounters()
    pool = WorkerPool(2, counters=counters)
    assert not pool.live and pool.generation == 0
    assert counters.pool_spinups == 0
    pool.lease()  # nothing live yet: not a reuse
    assert counters.pool_reuses == 0
    future = pool.submit(len, (1, 2, 3))
    assert future.result() == 3
    assert pool.live and pool.generation == 1
    assert counters.pool_spinups == 1
    pool.lease()
    assert counters.pool_reuses == 1
    pool.close()


def test_pool_close_is_idempotent_and_respins():
    counters = PerfCounters()
    pool = WorkerPool(2, counters=counters)
    pool.submit(len, ()).result()
    pool.close()
    pool.close()
    assert not pool.live
    # close is not terminal: the next submit respins a new generation
    assert pool.submit(len, (1,)).result() == 1
    assert pool.generation == 2 and counters.pool_spinups == 2
    pool.close()


def test_engine_pool_persists_and_context_manager_closes():
    with _source() as source:
        pool = source.worker_pool(2)
        assert source.worker_pool(2) is pool  # keyed by worker count
        assert source.worker_pool(3) is not pool
        pool.submit(len, ()).result()
        assert pool.live
    assert not pool.live  # __exit__ closed it


def test_atexit_sweep_closes_live_pools():
    pool = WorkerPool(2)
    pool.submit(len, ()).result()
    assert pool.live
    _close_live_resources()  # what the atexit hook runs
    assert not pool.live


# ----------------------------------------------------------------------
# Broken-pool rebuild mid-process_many
# ----------------------------------------------------------------------


def test_broken_pool_rebuilds_mid_batch_with_new_generation():
    """A lethal document breaks the executor mid-batch; the persistent
    pool retires it and respins — same pool object, next generation —
    and the batch completes."""
    documents = figure3_workload(12, 0, seed=51)
    batch = [d.copy() for d in documents]
    batch[5] = _as(LethalDocument, batch[5])

    with _source() as source:
        outcomes = source.process_many(batch, workers=2, chunk_size=3)
        pool = source.worker_pool(2)
        assert len(outcomes) == len(batch)
        assert pool.generation >= 2  # rebuilt at least once
        perf = source.perf_snapshot()
        assert perf["pool_spinups"] == pool.generation
        # the pool survives the rebuild and the batch: still the
        # engine's pool, usable by the next batch
        clean = source.process_many(
            [d.copy() for d in documents], workers=2, chunk_size=3
        )
        assert len(clean) == len(documents)
        assert source.perf_snapshot()["pool_reuses"] >= 1


def test_a_broken_retry_leaves_a_live_executor_for_the_next_batch():
    """When the lethal document sits in the last chunk, its retry is
    the last submit of the batch and breaks the executor again; no
    other chunk's retry respins one after it.  The pool must still end
    the batch with a live executor, so the next batch reuses it."""
    documents = figure3_workload(12, 0, seed=51)
    batch = [d.copy() for d in documents]
    batch[-1] = _as(LethalDocument, batch[-1])

    with _source() as source:
        outcomes = source.process_many(batch, workers=2, chunk_size=3)
        pool = source.worker_pool(2)
        assert len(outcomes) == len(batch)
        assert pool.live
        assert source.perf_snapshot()["pool_spinups"] == pool.generation
        source.process_many([d.copy() for d in documents], workers=2, chunk_size=3)
        assert source.perf_snapshot()["pool_reuses"] >= 1


def test_replace_creates_the_successor_at_once():
    counters = PerfCounters()
    pool = WorkerPool(2, counters=counters)
    pool.submit(len, ()).result()
    pool.replace()
    assert pool.live and pool.generation == 2 and counters.pool_spinups == 2
    assert pool.submit(len, (1,)).result() == 1
    pool.close()
    assert not pool.live


# ----------------------------------------------------------------------
# Exactly-once accounting under degradation
# ----------------------------------------------------------------------


def _run_degraded(fault):
    """One poisoned batch on a persistent pool, with a bus mirror and a
    metrics registry attached; returns everything the assertions need."""
    documents = figure3_workload(8, 0, seed=52)
    batch = [d.copy() for d in documents]
    batch[2] = _as(fault, batch[2])
    source = _source()
    mirror = PerfCounters()
    subscribe_counters(source.events, mirror)
    events = {ShardRetried: [], ParallelFallback: []}
    for event_type, sink in events.items():
        source.events.subscribe(event_type, sink.append)
    outcomes = source.process_many(batch, workers=2, chunk_size=100)
    source.close()
    return source, mirror, events, outcomes, len(batch)


@pytest.mark.parametrize("fault", [PoisonDocument, LethalDocument])
def test_degradation_events_fire_exactly_once(fault):
    source, mirror, events, outcomes, size = _run_degraded(fault)
    assert len(outcomes) == size
    assert len(events[ShardRetried]) == 1
    assert len(events[ParallelFallback]) == 1


@pytest.mark.parametrize("fault", [PoisonDocument, LethalDocument])
def test_bus_mirror_reconstructs_perf_snapshot_under_degradation(fault):
    """The retry re-reports a worker's cumulative counters and the
    fallback adds in-process work — the ``subscribe_counters`` mirror
    must still equal ``perf_snapshot()`` exactly (no redelivery, no
    double-merge of the retried shard)."""
    source, mirror, _events, _outcomes, _size = _run_degraded(fault)
    assert mirror.snapshot() == source.perf_snapshot()


def test_metrics_registry_update_is_idempotent_after_degradation():
    """``update_from_perf`` adopts monotone totals, so re-publishing the
    same snapshot after a degraded batch never double-counts."""
    source, _mirror, _events, _outcomes, _size = _run_degraded(PoisonDocument)
    registry = MetricsRegistry()
    registry.update_from_perf(source.perf_snapshot())
    first = registry.expose()
    registry.update_from_perf(source.perf_snapshot())
    assert registry.expose() == first
