"""Persistent worker pools for parallel classification.

The original driver owned a ``ProcessPoolExecutor`` per batch: every
``process_many`` call paid the full pool spin-up (fork + interpreter
bootstrap per worker) and threw the warm workers away afterwards,
together with their per-epoch classifier caches.  A :class:`WorkerPool`
instead lives on the engine — one per worker count, created lazily and
reused across batches — so the spin-up cost amortises over the
engine's lifetime and the fingerprint-keyed snapshot caches inside the
workers stay warm between ``process_many`` calls.

Lifecycle:

- ``pool.submit(fn, *args)`` lazily creates the executor on first use
  (counted in :attr:`~repro.perf.PerfCounters.pool_spinups`);
- ``pool.retire()`` discards a broken executor but keeps the pool — the
  next submit respins a fresh one (the driver calls this when a worker
  dies and the executor reports ``BrokenExecutor``);
- ``pool.replace()`` retires and creates the successor at once (the
  driver calls this when a chunk's retry breaks the executor too, so
  the batch never ends without one);
- ``pool.close()`` shuts the executor down for good (idempotent; the
  pool respins if submitted to again).

Engines expose the lifecycle as ``XMLSource.close()`` and the context
manager protocol.  As a last resort every live pool (and any other
closable parallel resource registered via :func:`register_for_atexit`)
is shut down by an ``atexit`` hook, so persistent pools never silently
outlive the process that forgot to close them.
"""

from __future__ import annotations

import atexit
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Optional

__all__ = ["WorkerPool", "register_for_atexit"]

#: every closable parallel resource still alive (weak — a resource only
#: reachable from here is left to normal garbage collection)
_LIVE_RESOURCES: "weakref.WeakSet" = weakref.WeakSet()
_ATEXIT_INSTALLED = False


def _close_live_resources() -> None:
    for resource in list(_LIVE_RESOURCES):
        try:
            resource.close()
        except Exception:  # pragma: no cover - best-effort shutdown
            pass


def register_for_atexit(resource: object) -> None:
    """Track ``resource`` (anything with ``close()``) for the process
    exit sweep.  The hook is installed on first registration only."""
    global _ATEXIT_INSTALLED
    _LIVE_RESOURCES.add(resource)
    if not _ATEXIT_INSTALLED:
        atexit.register(_close_live_resources)
        _ATEXIT_INSTALLED = True


class WorkerPool:
    """A lazily spun, rebuildable, engine-lifetime process pool.

    ``generation`` counts executors created so far: 1 after the first
    spin-up, +1 after every :meth:`retire`/respin cycle.  The driver
    stamps it onto spliced worker spans so a trace shows whether a
    batch reused the pool or had to rebuild it.
    """

    def __init__(self, workers: int, counters=None):
        if workers < 2:
            raise ValueError(f"WorkerPool needs workers >= 2, got {workers}")
        self.workers = workers
        self.counters = counters
        self.generation = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        register_for_atexit(self)

    # ------------------------------------------------------------------

    @property
    def live(self) -> bool:
        """Whether an executor is currently spun up."""
        return self._executor is not None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self.generation += 1
            if self.counters is not None:
                self.counters.pool_spinups += 1
        return self._executor

    def submit(self, fn: Callable, *args) -> Future:
        """Submit a task, spinning the executor up if needed."""
        return self._ensure().submit(fn, *args)

    def lease(self) -> None:
        """Mark the start of one batch: counts a pool reuse when a live
        executor is already waiting (the persistent-pool win)."""
        if self._executor is not None and self.counters is not None:
            self.counters.pool_reuses += 1

    def retire(self) -> None:
        """Discard the (presumed broken) executor; the pool itself
        survives and respins on the next submit."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def replace(self) -> None:
        """Retire a broken executor and create its successor at once
        (its processes start on the first submit).  A batch whose retry
        also broke the executor thus ends with a live one, whatever the
        surviving workers had finished by then, and the next batch's
        :meth:`lease` counts a reuse."""
        self.retire()
        self._ensure()

    def close(self) -> None:
        """Shut the executor down for good (idempotent)."""
        self.retire()

    def __repr__(self) -> str:
        state = "live" if self.live else "idle"
        return (
            f"WorkerPool(workers={self.workers}, "
            f"generation={self.generation}, {state})"
        )
