"""The classify-parallel / evolve-serial epoch driver.

``XMLSource.process_many(..., workers=N)`` delegates here.  The driver
borrows the engine's **persistent** :class:`~repro.parallel.pool.WorkerPool`
(one per worker count, alive across ``process_many`` calls until the
engine is closed) and runs the epoch loop described in
:mod:`repro.parallel`: publish the epoch's snapshot, fan out chunks,
merge strictly in submission order through the serial pipeline stages,
and restart the epoch whenever an evolution invalidates the snapshot.
All engine state mutation happens on the parent process — workers only
ever *read* a frozen snapshot — so the merged run is bit-identical to
the serial one.

Overhead posture (the reason parallelism pays):

- snapshots are pickled once per *changed* epoch by the engine and
  shipped as a :class:`~repro.parallel.snapshot.SnapshotRef` — a
  fingerprint plus a shared-memory block name (or the bytes inline on
  platforms without shared memory);
- results come back as chunk-level batches of plain tuples, with span
  records shipped only on traced epochs and counters as sparse
  cumulative reports;
- in **overlap mode** (the default) chunk submission is windowed: the
  driver keeps ``workers * 4`` shards in flight and tops the window up
  *before* merging each completed shard, so workers keep classifying
  upcoming shards while the parent replays merges — and an evolution
  discards at most a window of speculative work instead of the whole
  remainder of the batch;
- on a **sharded** engine each epoch first tries *shard fan-out*:
  documents overlapping exactly one DTD shard ship to workers that
  rebuild only that shard's DTD subset (one per-shard snapshot, keyed
  by its own content fingerprint), while fallback documents — zero or
  several overlapping shards, the depth guard, or a worker result the
  screen cannot certify — are classified serially on the parent inside
  the in-order merge, keeping results bit-identical to serial.

The evolve-serial gap between epochs is the driver's Amdahl term: every
evolution runs on the parent while the pool idles.  Incremental
evolution (dirty-element replay, the mined-rule memo) and the pruned
post-evolution drain (see :mod:`repro.perf`) shorten exactly that gap,
so they compound with parallel classification; workers themselves never
evolve, and the evolution timers in their cumulative reports stay zero.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.classification.classifier import ClassificationResult
from repro.parallel.events import ParallelFallback, ShardRetried
from repro.parallel.snapshot import SnapshotRef, rebuild_classification
from repro.parallel.worker import classify_chunk
from repro.pipeline.context import ProcessOutcome
from repro.xmltree.document import Document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine → driver)
    from repro.core.engine import XMLSource
    from repro.parallel.pool import WorkerPool

#: in-flight chunks per worker targeted by the overlap window and by
#: auto chunk sizing — small enough that an early-epoch evolution
#: discards little speculative work, large enough that per-chunk
#: submission overhead stays amortised
_CHUNKS_PER_WORKER = 4

#: auto chunk sizing never exceeds this many documents per shard in
#: overlap mode, so the window refills at a granularity that keeps the
#: merge loop and the workers busy simultaneously
_MAX_OVERLAP_CHUNK = 32


class ParallelDriver:
    """Drives one parallel batch for one source."""

    def __init__(
        self,
        source: "XMLSource",
        workers: int,
        chunk_size: int = 0,
        overlap: bool = True,
    ):
        if workers < 2:
            raise ValueError(f"ParallelDriver needs workers >= 2, got {workers}")
        self.source = source
        self.workers = workers
        #: documents per shard; 0 = auto (pending / (workers * 4),
        #: capped at ``_MAX_OVERLAP_CHUNK`` in overlap mode)
        self.chunk_size = chunk_size
        #: windowed submission (see module docstring); ``False`` submits
        #: every shard of the epoch up front
        self.overlap = overlap

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _emit(self, event: object) -> None:
        self.source.pipeline.emit(event)

    def _delta(self):
        return self.source.pipeline.perf_delta()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def process(
        self,
        documents: List[Document],
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ) -> List[ProcessOutcome]:
        source = self.source
        outcomes: List[ProcessOutcome] = []
        if source.tag_matcher is not None:
            # thesaurus matchers are stateful and not parallel-safe;
            # degrade to the serial path for the whole batch
            self._emit(
                ParallelFallback(
                    0, -1, len(documents),
                    "thesaurus tag matcher installed; classifying in process",
                    self._delta(),
                )
            )
            for index, document in enumerate(documents, start=1):
                outcomes.append(source.process(document))
                self._checkpoint(index, checkpoint_every, checkpoint_path)
            return outcomes
        pool = source.worker_pool(self.workers)
        pool.lease()
        epoch = 0
        position = 0
        # the merge deposits through the serial stages; one batched-
        # ingestion window covers the whole parallel batch exactly as
        # the serial path's does
        with source.repository.bulk():
            while position < len(documents):
                epoch += 1
                position += self._run_epoch(
                    epoch,
                    pool,
                    documents[position:],
                    outcomes,
                    position,
                    checkpoint_every,
                    checkpoint_path,
                )
        return outcomes

    # ------------------------------------------------------------------
    # One epoch
    # ------------------------------------------------------------------

    def _chunks(self, pending: List[Document]) -> List[List[Document]]:
        size = self.chunk_size
        if size <= 0:
            size = max(
                1, math.ceil(len(pending) / (self.workers * _CHUNKS_PER_WORKER))
            )
            if self.overlap:
                size = min(size, _MAX_OVERLAP_CHUNK)
        return [pending[i:i + size] for i in range(0, len(pending), size)]

    def _run_epoch(
        self,
        epoch: int,
        pool: "WorkerPool",
        pending: List[Document],
        outcomes: List[ProcessOutcome],
        base_index: int,
        checkpoint_every: int,
        checkpoint_path: Optional[str],
    ) -> int:
        """Classify ``pending`` against the current snapshot and merge
        until the batch ends or an evolution stales it.  Returns how
        many documents were merged."""
        source = self.source
        tracer = source.tracer
        classifier = source.classifier
        if getattr(classifier, "fanout_eligible", None) and classifier.fanout_eligible():
            routes = [classifier.fanout_route(document) for document in pending]
            if any(route is not None for route in routes):
                return self._run_fanout_epoch(
                    epoch,
                    pool,
                    pending,
                    routes,
                    outcomes,
                    base_index,
                    checkpoint_every,
                    checkpoint_path,
                )
            # nothing routable this epoch — fall through to the
            # ordinary full-snapshot fan-out by document chunk
        ref = source.snapshot_wire()
        chunks = self._chunks(pending)
        window = (
            self.workers * _CHUNKS_PER_WORKER if self.overlap else len(chunks)
        )
        next_chunk = 0
        in_flight: Deque[Tuple[int, Future]] = deque()
        while next_chunk < len(chunks) and len(in_flight) < window:
            in_flight.append(
                (next_chunk, pool.submit(classify_chunk, ref, chunks[next_chunk]))
            )
            next_chunk += 1
        merged = 0
        epoch_span = (
            tracer.start(
                "epoch", epoch=epoch, pending=len(pending), shards=len(chunks)
            )
            if tracer.enabled
            else None
        )
        try:
            while in_flight:
                shard_index, future = in_flight.popleft()
                # top the window up *before* merging: workers classify
                # ahead while the parent replays this shard's merges
                if next_chunk < len(chunks):
                    in_flight.append(
                        (
                            next_chunk,
                            pool.submit(classify_chunk, ref, chunks[next_chunk]),
                        )
                    )
                    next_chunk += 1
                chunk = chunks[shard_index]
                classifications, wire_bytes = self._shard_classifications(
                    epoch, pool, ref, shard_index, chunk, future
                )
                for document, (classification, spans) in zip(
                    chunk, classifications
                ):
                    if spans and epoch_span is not None:
                        # worker clocks are not comparable to ours:
                        # rebase the shipped spans to land at the merge
                        # point, parent them under this epoch.
                        # ``wire_bytes`` is this document's share of the
                        # chunk's measured result bytes, so summing it
                        # over ``worker.classify`` spans reconstructs
                        # the shipped total (see ``repro report``).
                        tracer.splice(
                            spans,
                            parent_id=epoch_span.span_id,
                            rebase_to=time.perf_counter_ns(),
                            doc_id=source.documents_processed + 1,
                            shard=shard_index,
                            pool_gen=pool.generation,
                            wire_bytes=round(wire_bytes / len(chunk)),
                        )
                    outcome = source.process(document, classification)
                    outcomes.append(outcome)
                    merged += 1
                    self._checkpoint(
                        base_index + merged, checkpoint_every, checkpoint_path
                    )
                    if outcome.evolved:
                        # the snapshot is stale; in-flight shard results
                        # are discarded, the unsubmitted remainder was
                        # never shipped, and the rest re-shards
                        return merged
        finally:
            if epoch_span is not None:
                epoch_span.set("merged", merged)
                tracer.finish(epoch_span)
            for _, future in in_flight:
                future.cancel()
        return merged

    # ------------------------------------------------------------------
    # Shard fan-out epochs
    # ------------------------------------------------------------------

    def _run_fanout_epoch(
        self,
        epoch: int,
        pool: "WorkerPool",
        pending: List[Document],
        routes: List[Optional[int]],
        outcomes: List[ProcessOutcome],
        base_index: int,
        checkpoint_every: int,
        checkpoint_path: Optional[str],
    ) -> int:
        """One epoch where classification fans out per DTD shard.

        A document that routes to exactly one shard ships to workers
        holding only that shard's DTD subset (a plain classifier over
        the subset evaluates the same candidate set, in the same order,
        as the serial sharded screen); every other document — no
        overlapping shard, several, or the depth guard — stays on the
        serial path, classified on the parent inside the merge.  The
        merge walks the batch strictly in order either way, so
        outcomes, repository contents, events and the evolution log are
        bit-identical to serial (DESIGN.md decision 14).
        """
        source = self.source
        tracer = source.tracer
        shard_map, refs = source.shard_snapshot_wire()
        source.perf.shard_fanout_epochs += 1
        #: the other shards' names per route, extending each worker
        #: payload's pruned tail exactly as the serial screen would
        screened_by_route: Dict[int, Tuple[str, ...]] = {}

        by_shard: Dict[int, List[int]] = {}
        for position, route in enumerate(routes):
            if route is not None:
                by_shard.setdefault(route, []).append(position)
        routed_total = sum(len(positions) for positions in by_shard.values())
        size = self.chunk_size
        if size <= 0:
            size = max(
                1, math.ceil(routed_total / (self.workers * _CHUNKS_PER_WORKER))
            )
            if self.overlap:
                size = min(size, _MAX_OVERLAP_CHUNK)
        chunks: List[Tuple[int, List[int]]] = []
        for shard_index in sorted(by_shard):
            positions = by_shard[shard_index]
            for start in range(0, len(positions), size):
                chunks.append((shard_index, positions[start:start + size]))
        # submit in merge order: the chunk the merge will block on first
        # is always the first one in flight
        chunks.sort(key=lambda entry: entry[1][0])
        window = (
            self.workers * _CHUNKS_PER_WORKER if self.overlap else len(chunks)
        )
        next_chunk = 0
        in_flight: Deque[Tuple[int, Future]] = deque()

        def submit_next() -> None:
            nonlocal next_chunk
            shard_index, positions = chunks[next_chunk]
            in_flight.append(
                (
                    next_chunk,
                    pool.submit(
                        classify_chunk,
                        refs[shard_index],
                        [pending[p] for p in positions],
                    ),
                )
            )
            next_chunk += 1

        while next_chunk < len(chunks) and len(in_flight) < window:
            submit_next()
        #: position → (payload or None, spans, wire share, shard index)
        ready: Dict[int, tuple] = {}
        merged = 0
        epoch_span = (
            tracer.start(
                "epoch",
                epoch=epoch,
                pending=len(pending),
                shards=len(chunks),
                fanout=len(shard_map),
            )
            if tracer.enabled
            else None
        )
        try:
            for position, document in enumerate(pending):
                route = routes[position]
                classification: Optional[ClassificationResult] = None
                spans = None
                wire_share = 0
                shard_index = -1
                if route is not None:
                    while position not in ready:
                        if not in_flight:
                            submit_next()
                        chunk_index, future = in_flight.popleft()
                        # top the window up *before* resolving: workers
                        # classify ahead while the parent merges
                        if next_chunk < len(chunks):
                            submit_next()
                        self._resolve_fanout_chunk(
                            epoch, pool, chunks[chunk_index], refs,
                            pending, future, ready,
                        )
                    payload, spans, wire_share, shard_index = ready.pop(position)
                    if payload is not None and payload[1] > 0.0:
                        screened = screened_by_route.get(route)
                        if screened is None:
                            screened = tuple(
                                name
                                for index, shard in enumerate(shard_map)
                                if index != route
                                for name in shard
                            )
                            screened_by_route[route] = screened
                        dtd_name, similarity, evaluated, pruned, proven_valid = payload
                        classification = rebuild_classification(
                            source.classifier,
                            document,
                            (
                                dtd_name,
                                similarity,
                                evaluated,
                                pruned + screened,
                                proven_valid,
                            ),
                        )
                        source.perf.shard_skips += len(shard_map) - 1
                    # else: chunk fell back (payload None) or the best
                    # similarity was 0.0 — a zero tie breaks on name
                    # across the FULL DTD set, which may live in another
                    # shard — so the serial classify below reproduces
                    # the exact serial result
                if spans and epoch_span is not None:
                    tracer.splice(
                        spans,
                        parent_id=epoch_span.span_id,
                        rebase_to=time.perf_counter_ns(),
                        doc_id=source.documents_processed + 1,
                        shard=shard_index,
                        pool_gen=pool.generation,
                        wire_bytes=wire_share,
                    )
                outcome = source.process(document, classification)
                outcomes.append(outcome)
                merged += 1
                self._checkpoint(
                    base_index + merged, checkpoint_every, checkpoint_path
                )
                if outcome.evolved:
                    # the shard snapshots are stale; the outer loop
                    # re-routes and re-publishes against the evolved set
                    return merged
        finally:
            if epoch_span is not None:
                epoch_span.set("merged", merged)
                tracer.finish(epoch_span)
            for _, future in in_flight:
                future.cancel()
        return merged

    def _resolve_fanout_chunk(
        self,
        epoch: int,
        pool: "WorkerPool",
        chunk: Tuple[int, List[int]],
        refs: List[SnapshotRef],
        pending: List[Document],
        future: Future,
        ready: Dict[int, tuple],
    ) -> None:
        """Fold one fan-out chunk's results into ``ready``, with
        retry-once; a chunk that still fails marks its positions for
        the serial fallback (payload ``None``) instead of dying."""
        source = self.source
        shard_index, positions = chunk
        documents = [pending[p] for p in positions]
        try:
            result = future.result()
        except Exception as error:
            if isinstance(error, BrokenExecutor):
                pool.retire()
            self._emit(
                ShardRetried(
                    epoch, shard_index, len(documents), repr(error), self._delta()
                )
            )
            try:
                retry = pool.submit(
                    classify_chunk, refs[shard_index], documents
                )
                result = retry.result()
            except Exception as retry_error:
                if isinstance(retry_error, BrokenExecutor):
                    pool.replace()
                self._emit(
                    ParallelFallback(
                        epoch,
                        shard_index,
                        len(documents),
                        repr(retry_error),
                        self._delta(),
                    )
                )
                for position in positions:
                    ready[position] = (None, None, 0, shard_index)
                return
        source.perf.merge(result.counters, key=result.worker_key)
        wire_share = 0
        if source.tracer.enabled:
            # traced runs only (see _shard_classifications)
            wire_share = round(
                len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
                / max(1, len(documents))
            )
        spans = result.spans
        for offset, position in enumerate(positions):
            ready[position] = (
                result.payloads[offset],
                spans[offset] if spans else None,
                wire_share,
                shard_index,
            )

    def _shard_classifications(
        self,
        epoch: int,
        pool: "WorkerPool",
        ref: SnapshotRef,
        shard_index: int,
        chunk: List[Document],
        future: Future,
    ) -> Tuple[List[Tuple[ClassificationResult, Optional[tuple]]], int]:
        """One shard's ``(classification, worker spans)`` pairs plus the
        shard's measured wire bytes, with retry-once and serial fallback
        (fallback pairs carry no spans — the in-process classification
        is traced by the pipeline's own ``doc`` span)."""
        source = self.source
        try:
            result = future.result()
        except Exception as error:  # dead worker, poison document, ...
            if isinstance(error, BrokenExecutor):
                # discard the broken executor; the pool respins a fresh
                # one (new generation) on the retry submit below
                pool.retire()
            self._emit(
                ShardRetried(epoch, shard_index, len(chunk), repr(error), self._delta())
            )
            try:
                retry = pool.submit(classify_chunk, ref, chunk)
                result = retry.result()
            except Exception as retry_error:
                if isinstance(retry_error, BrokenExecutor):
                    pool.replace()
                self._emit(
                    ParallelFallback(
                        epoch, shard_index, len(chunk), repr(retry_error), self._delta()
                    )
                )
                # in-process classification: same classifier the serial
                # path would use, so results stay bit-identical
                return [
                    (source.classifier.classify(document), None)
                    for document in chunk
                ], 0
        source.perf.merge(result.counters, key=result.worker_key)
        wire_bytes = 0
        if source.tracer.enabled:
            # traced runs only: re-measure what this shard shipped so
            # `repro report` can show bytes-on-the-wire per worker.
            # Untraced runs never pay this re-pickle.
            wire_bytes = len(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            )
        spans = result.spans
        pairs = [
            (
                rebuild_classification(source.classifier, document, payload),
                spans[position] if spans else None,
            )
            for position, (document, payload) in enumerate(
                zip(chunk, result.payloads)
            )
        ]
        return pairs, wire_bytes

    # ------------------------------------------------------------------

    def _checkpoint(
        self, index: int, checkpoint_every: int, checkpoint_path: Optional[str]
    ) -> None:
        if checkpoint_every and checkpoint_path and index % checkpoint_every == 0:
            from repro.core.persistence import save_source

            save_source(self.source, checkpoint_path)

    def __repr__(self) -> str:
        return (
            f"ParallelDriver(workers={self.workers}, overlap={self.overlap})"
        )
