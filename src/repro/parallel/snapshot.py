"""The wire format between the driver and its workers.

Four shapes cross (or describe what crosses) the process boundary:

- :class:`ClassifierSnapshot` — the frozen classification state of one
  epoch (DTD set, ``sigma``, similarity and fast-path configuration).
  The engine pickles it **once per changed epoch** and addresses it by
  content fingerprint; unchanged epochs reuse the cached bytes without
  re-pickling (``snapshot_reuses`` counter).
- :class:`SnapshotRef` — what actually ships with every chunk: the
  fingerprint plus *where the bytes live*.  On platforms with POSIX
  shared memory the pickled snapshot is published once into a
  ``multiprocessing.shared_memory`` block and the ref carries only the
  block name (a few dozen bytes per chunk instead of the whole
  snapshot); elsewhere — or when shared memory fails — the ref inlines
  the pickle as a graceful fallback.  Workers cache the rebuilt
  classifier by fingerprint, so either way an unchanged snapshot is
  unpickled at most once per worker process.
- *payload tuples* — one document's classification result as a plain
  tuple ``(dtd_name, similarity, evaluated, pruned, proven_valid)``:
  the decision, the eagerly-scored ranking head, the names tier-3
  pruning skipped, and whether tier 1 proved the document valid (all
  the recorder needs).  Laziness is *preserved* across the boundary:
  the parent rebuilds the deferred ranking tail and the deferred
  evaluation against its own matchers.  Tuples pickle to a fraction of
  the bytes an attribute-bearing class instance costs.
- :class:`ChunkResult` — a shard's payload tuples plus the worker's
  sparse cumulative counter report (nonzero entries only, keyed for
  duplicate-safe merging) and — **only on traced epochs** — the
  per-document span record batches.  Untraced runs ship no span field
  content at all (lazy span shipping).

:func:`payload_from` and :func:`rebuild_classification` are exact
inverses up to object identity: the rebuilt
:class:`~repro.classification.classifier.ClassificationResult` is bound
to the parent's document and DTD objects, with float-identical
similarities (pickle round-trips floats bit-exactly).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.classification.classifier import ClassificationResult, Classifier
from repro.classification.sharding import ShardedClassifier, ShardMap
from repro.dtd.dtd import DTD
from repro.parallel.pool import register_for_atexit
from repro.perf import FastPathConfig, PerfCounters
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document

#: one document's classification on the wire: (dtd_name, similarity,
#: evaluated head, pruned names, proven valid)
PayloadTuple = Tuple[
    Optional[str],
    float,
    Tuple[Tuple[str, float], ...],
    Tuple[str, ...],
    bool,
]


def snapshot_fingerprint(payload: bytes) -> str:
    """The content address of a pickled snapshot."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class ClassifierSnapshot:
    """Immutable, picklable classification state for one epoch."""

    __slots__ = ("dtds", "threshold", "config", "fastpath", "traced", "shards")

    def __init__(
        self,
        dtds: Iterable[DTD],
        threshold: float,
        config: SimilarityConfig,
        fastpath: FastPathConfig,
        traced: bool = False,
        shards: Optional[ShardMap] = None,
    ):
        self.dtds: Tuple[DTD, ...] = tuple(dtds)
        self.threshold = threshold
        self.config = config
        self.fastpath = fastpath
        #: whether the parent wants per-document worker spans back
        self.traced = traced
        #: the parent's DTD shard map when it classifies sharded, so
        #: worker fan-out screens the same per-shard candidate sets
        #: (``None`` reconstructs a plain unsharded classifier)
        self.shards = shards

    @classmethod
    def of(cls, source: "XMLSource") -> "ClassifierSnapshot":
        """Freeze ``source``'s current classification state.

        Only exact tag matching is parallel-safe (a thesaurus matcher
        is stateful and unpicklable in general); the driver degrades to
        serial before ever snapshotting such a source.
        """
        classifier = source.classifier
        shards = (
            classifier.shard_map()
            if isinstance(classifier, ShardedClassifier)
            else None
        )
        return cls(
            (source.classifier.dtd(name) for name in source.dtd_names()),
            source.classifier.threshold,
            source.similarity_config,
            source.fastpath,
            traced=source.tracer.enabled,
            shards=shards,
        )

    def build_classifier(self, counters: Optional[PerfCounters] = None) -> Classifier:
        """Reconstruct a classifier (worker side, once per fingerprint)."""
        if self.shards is not None:
            return ShardedClassifier(
                self.dtds,
                self.threshold,
                self.config,
                tag_matcher=None,
                fastpath=self.fastpath,
                counters=counters,
                shard_map=self.shards,
            )
        return Classifier(
            self.dtds,
            self.threshold,
            self.config,
            tag_matcher=None,
            fastpath=self.fastpath,
            counters=counters,
        )

    def __repr__(self) -> str:
        names = [dtd.name for dtd in self.dtds]
        return f"ClassifierSnapshot(dtds={names!r}, sigma={self.threshold})"


class SnapshotRef(NamedTuple):
    """A chunk-sized handle to one published snapshot.

    Exactly one of ``shm_name`` / ``inline`` is set: shared-memory
    publication ships the block name and byte length; the fallback
    inlines the pickle itself.
    """

    fingerprint: str
    shm_name: Optional[str]
    size: int
    inline: Optional[bytes]


class SnapshotPublisher:
    """Parent-side snapshot publication, any number of live snapshots.

    ``publish`` is idempotent per fingerprint: re-publishing a live
    snapshot returns the existing ref.  Several snapshots can be live
    at once — shard fan-out publishes one per DTD shard for the same
    epoch — and :meth:`retain` trims the set down to exactly the
    fingerprints the next epoch still needs, unlinking everything else
    (by then every consumer of the dropped snapshots has been merged or
    discarded).  When shared memory is unavailable — or creation fails
    at runtime — the publisher degrades permanently to inline refs,
    which ship the pickled bytes with every chunk exactly as the
    pre-shared-memory driver did.
    """

    def __init__(self, shared: bool = True):
        self._shared = shared
        self._refs: Dict[str, SnapshotRef] = {}
        self._blocks: Dict[str, object] = {}
        register_for_atexit(self)

    def publish(self, fingerprint: str, payload: bytes) -> SnapshotRef:
        ref = self._refs.get(fingerprint)
        if ref is not None:
            return ref
        if self._shared:
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(create=True, size=len(payload))
                shm.buf[: len(payload)] = payload
                self._blocks[fingerprint] = shm
                ref = SnapshotRef(fingerprint, shm.name, len(payload), None)
                self._refs[fingerprint] = ref
                return ref
            except Exception:
                # no /dev/shm, SELinux denial, ... — fall back for good
                self._shared = False
        ref = SnapshotRef(fingerprint, None, len(payload), payload)
        self._refs[fingerprint] = ref
        return ref

    def retain(self, fingerprints: Iterable[str]) -> None:
        """Release every published snapshot except ``fingerprints``."""
        keep = set(fingerprints)
        for fingerprint in list(self._refs):
            if fingerprint not in keep:
                self._release_one(fingerprint)

    def _release_one(self, fingerprint: str) -> None:
        self._refs.pop(fingerprint, None)
        shm = self._blocks.pop(fingerprint, None)
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - already gone
                pass

    def release(self) -> None:
        """Unlink every published shared-memory block."""
        for fingerprint in list(self._refs):
            self._release_one(fingerprint)

    def close(self) -> None:
        self.release()

    def __repr__(self) -> str:
        mode = "shared" if self._shared else "inline"
        live = sorted(fp[:8] for fp in self._refs)
        return f"SnapshotPublisher({mode}, live={live})"


class ChunkResult(NamedTuple):
    """What one worker task returns for one chunk of documents.

    ``counters`` is the worker's *cumulative* snapshot restricted to
    nonzero entries — the keyed duplicate-safe merge treats an absent
    key as unchanged, and per-process counters are monotone, so a key
    that was ever reported keeps being reported.  ``spans`` is ``None``
    on untraced epochs; on traced epochs it aligns with ``payloads``
    (one tuple of span records per document).
    """

    #: stable per-process identity — the duplicate-safe merge key
    worker_key: str
    #: sparse cumulative counter snapshot (nonzero entries only)
    counters: dict
    payloads: Tuple[PayloadTuple, ...]
    spans: Optional[Tuple[tuple, ...]] = None


def payload_from(result: ClassificationResult) -> PayloadTuple:
    """Flatten a classification result without realizing lazy work.

    The eagerly-scored ranking head and the pruned names travel instead
    of the full ranking, so tier-3 pruning's savings survive the
    process boundary; the evaluation does not travel at all.
    """
    return (
        result.dtd_name,
        result.similarity,
        tuple(result.evaluated),
        tuple(result.pruned),
        result.proven_valid,
    )


def rebuild_classification(
    classifier: Classifier, document: Document, payload: PayloadTuple
) -> ClassificationResult:
    """Rebind a worker payload tuple to the parent's live objects.

    Must run while the classifier still holds the epoch's DTD set
    (the driver merges strictly before any evolution): the deferred
    evaluation and ranking tail capture the parent's DTD instance and
    matchers, exactly as a serial classification at this point would
    have.
    """
    dtd_name, similarity, evaluated, pruned, proven_valid = payload
    head = list(evaluated)
    if pruned:
        ranking = classifier.deferred_ranking(document, head, pruned)
    else:
        ranking = head
    evaluation = (
        classifier.deferred_evaluation(document, dtd_name)
        if dtd_name is not None
        else None
    )
    return ClassificationResult(
        document,
        dtd_name,
        similarity,
        evaluation,
        ranking,
        evaluated=head,
        pruned=pruned,
        proven_valid=proven_valid,
    )
