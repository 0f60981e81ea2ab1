"""Seeded input generators for the benchmark workloads.

Every workload is a JSON-able *spec*: the DTD texts, the evolution
parameters, the store kind and the XML strings to feed.  The program
under test only ever sees those strings (and JSON bodies built from
them); the seed stays on this side.  The same ``(workload, seed)``
always yields the same spec, byte for byte.

Why each workload exists (the full rationale is in ``README.md``):

- ``batch_steady`` — mostly valid documents against five DTDs, one
  Figure-3 drift that evolves about once, in-memory store.  Parse,
  validity short-circuit classification and record dominate; evolve,
  drain and store are noise.  A change to evolution or storage should
  move nothing here.
- ``batch_drift`` — four scenario DTDs fed eras of add/drop/operator
  drift, sqlite store.  Alignment classification of invalid documents
  dominates, with about a dozen evolutions and indexed drains and real
  repository deposits.  Not in ``BENCHMARK.json``: its evolution
  trajectory differs so much between seeds that its numbers spread too
  widely for a regression bound; it serves the traced ledger.
- ``serve_mixed`` — the daemon in its own process under an open loop of
  phased-drift deposits and ``/classify`` reads at fixed rates.  It
  reaches HTTP/JSON, the event loop, the writer queue, snapshot
  publication and reader classifier rebuilds, which batch never does.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List

WORKLOADS = ("batch_steady", "batch_drift", "serve_mixed")

#: open-loop rates of ``serve_mixed``, requests per second.  They keep
#: the daemon near an eighth of one core on a 2-CPU machine, so requests
#: rarely queue behind each other and latencies measure service time
#: rather than collisions (100 + 200, and 70 + 70 with the auction DTD
#: served too, fell behind; 40 + 40 queued after every publish)
DEPOSIT_RATE = 20.0
CLASSIFY_RATE = 20.0

#: Figure-3 deposits per ``serve_mixed`` drift phase
_PHASE = 100

#: foreign tags each scenario's add-drift introduces
_FOREIGN_TAGS = {
    "catalog": ("warranty", "rating"),
    "bibliography": ("doi", "pages"),
    "newsfeed": ("media", "byline"),
    "auction": ("shipping", "payment"),
}


def _scenarios():
    from repro.generators.scenarios import (
        auction_scenario,
        bibliography_scenario,
        catalog_scenario,
        newsfeed_scenario,
    )

    return [
        scenario()[0]
        for scenario in (
            catalog_scenario,
            bibliography_scenario,
            newsfeed_scenario,
            auction_scenario,
        )
    ]


def _dtd_entries(dtds) -> List[Dict[str, str]]:
    from repro.dtd.serializer import serialize_dtd

    return [{"name": dtd.name, "text": serialize_dtd(dtd)} for dtd in dtds]


def _xml(documents) -> List[str]:
    from repro.xmltree.serializer import serialize_document

    return [serialize_document(document) for document in documents]


def _valid(dtds, count: int, seed: int) -> List:
    """``count`` valid documents per DTD, one generator stream each."""
    from repro.generators.documents import DocumentGenerator

    documents = []
    for index, dtd in enumerate(dtds):
        documents.extend(
            DocumentGenerator(dtd, seed=seed * 7919 + index).generate_many(count)
        )
    return documents


def _figure3_drift(pairs: int, seed: int) -> List:
    from repro.generators.scenarios import figure3_workload

    return figure3_workload(pairs, pairs, seed=seed)


def _era_drift(dtd, era: int, seed: int):
    """The drift of one era: steady, new elements, new elements with
    missing ones, new elements with violated operators."""
    from repro.generators.documents import (
        AddDrift,
        CompositeDrift,
        DropDrift,
        OperatorDrift,
    )

    tags = _FOREIGN_TAGS[dtd.name]
    if era == 0:
        return CompositeDrift([])
    if era == 1:
        return AddDrift(0.25, new_tags=tags, seed=seed)
    second = DropDrift(0.12, seed=seed + 1) if era == 2 else OperatorDrift(
        0.15, seed=seed + 1
    )
    return CompositeDrift([AddDrift(0.3, new_tags=tags, seed=seed), second])


def _drift_era(dtds, era: int, count: int, seed: int) -> List:
    from repro.generators.documents import DocumentGenerator

    documents = []
    for index, dtd in enumerate(dtds):
        stream_seed = seed * 7919 + era * 31 + index
        drift = _era_drift(dtd, era, stream_seed)
        generator = DocumentGenerator(dtd, seed=stream_seed)
        documents.extend(drift.apply(doc) for doc in generator.generate_many(count))
    return documents


def _figure3_doc(phase: int, rng: random.Random) -> str:
    """A Figure-3 document whose tail tag belongs to drift phase ``phase``;
    each phase brings a tag no DTD has seen yet, so each one forces an
    evolution (and a snapshot republish in serve mode)."""
    tail = f"t{phase}"
    body = "".join("<b>x</b><c>y</c>" for _ in range(rng.randint(1, 4)))
    body += "".join(f"<{tail}>z</{tail}>" for _ in range(rng.randint(1, 3)))
    return f"<a>{body}</a>"


def batch_steady(seed: int) -> Dict[str, Any]:
    from repro.generators.scenarios import figure3_dtd

    rng = random.Random(seed)
    scenarios = _scenarios()
    writes = _valid(scenarios, 240, seed) + _figure3_drift(60, seed)
    rng.shuffle(writes)
    reads = _valid(scenarios, 240, seed + 50_000) + _figure3_drift(30, seed + 1)
    rng.shuffle(reads)
    warmup = _valid(scenarios, 8, seed + 90_000) + _figure3_drift(4, seed + 2)
    return {
        "workload": "batch_steady",
        "seed": seed,
        "dtds": _dtd_entries([figure3_dtd()] + scenarios),
        "config": {"sigma": 0.4, "tau": 0.05, "min_documents": 25},
        "store": "memory",
        "writes": _xml(writes),
        "reads": _xml(reads),
        "warmup": _xml(warmup),
    }


def batch_drift(seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    scenarios = _scenarios()
    writes: List = []
    for era in range(4):
        documents = _drift_era(scenarios, era, 50, seed)
        rng.shuffle(documents)
        writes.extend(documents)
    # reads: fresh valid documents plus last-era drift, about a fifth of
    # them invalid against the evolved DTDs, so the median is a validity
    # short-circuit and the p90 an alignment
    reads = _valid(scenarios, 100, seed + 50_000) + _drift_era(scenarios, 3, 80, seed + 60_000)
    rng.shuffle(reads)
    warmup = _drift_era(scenarios, 1, 4, seed + 90_000)
    return {
        "workload": "batch_drift",
        "seed": seed,
        "dtds": _dtd_entries(scenarios),
        "config": {
            "sigma": 0.7,
            "tau": 0.08,
            "psi": 0.15,
            "mu": 0.05,
            "min_documents": 20,
            "min_valid_for_restriction": 10,
        },
        "store": "sqlite",
        "writes": _xml(writes),
        "reads": _xml(reads),
        "warmup": _xml(warmup),
    }


def serve_mixed(seed: int, seconds: float) -> Dict[str, Any]:
    """Deposits and reads for ``seconds`` of open-loop traffic.

    Deposits are 60% valid scenario documents and 40% phased Figure-3
    drift (a new tail tag every ``_PHASE`` Figure-3 documents); reads mix
    valid documents of every DTD with Figure-3 documents of the phase in
    force when they are due.
    """
    from repro.generators.scenarios import figure3_dtd

    rng = random.Random(seed)
    # no auction DTD: its large documents made every request several
    # times dearer and pushed the daemon close to saturation
    scenarios = _scenarios()[:3]
    deposits = max(1, int(DEPOSIT_RATE * seconds))
    reads = max(1, int(CLASSIFY_RATE * seconds))
    drift_count = (deposits * 2) // 5
    per_dtd = -(-(deposits - drift_count) // len(scenarios))
    valid = _xml(_valid(scenarios, per_dtd, seed))
    rng.shuffle(valid)
    del valid[deposits - drift_count :]
    drift = [_figure3_doc(index // _PHASE, rng) for index in range(drift_count)]
    # interleave: the drift stream keeps its phase order, valid
    # documents land at seeded positions between its members
    slots = [True] * len(drift) + [False] * len(valid)
    rng.shuffle(slots)
    drift_iter, valid_iter = iter(drift), iter(valid)
    writes = [next(drift_iter) if slot else next(valid_iter) for slot in slots]
    # the drift phase in force after each deposit
    phase_after, seen = [], 0
    for slot in slots:
        seen += slot
        phase_after.append(max(0, seen - 1) // _PHASE)
    # reads: half valid documents, half Figure-3 documents of the phase
    # the deposits are in when the read is due
    read_valid = _xml(
        _valid(scenarios, -(-reads // (2 * len(scenarios))), seed + 50_000)
    )[: reads // 2]
    read_slots = [True] * (reads - len(read_valid)) + [False] * len(read_valid)
    rng.shuffle(read_slots)
    valid_iter = iter(read_valid)
    read_pool = []
    for index, slot in enumerate(read_slots):
        if slot:
            # the deposit due just before this read (both streams span
            # the same seconds at fixed rates)
            deposit = min(len(writes) - 1, int((index + 0.5) * len(writes) / reads))
            read_pool.append(_figure3_doc(phase_after[deposit], rng))
        else:
            read_pool.append(next(valid_iter))
    return {
        "workload": "serve_mixed",
        "seed": seed,
        "dtds": _dtd_entries([figure3_dtd()] + scenarios),
        "config": {"sigma": 0.4, "tau": 0.05, "min_documents": 25},
        "store": "sqlite",
        "writes": writes,
        "reads": read_pool,
        "warmup": read_valid[:16],
        "deposit_rate": DEPOSIT_RATE,
        "classify_rate": CLASSIFY_RATE,
    }


def make_spec(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    if workload == "batch_steady":
        return batch_steady(seed)
    if workload == "batch_drift":
        return batch_drift(seed)
    if workload == "serve_mixed":
        return serve_mixed(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# Building the program under test from a spec
# ----------------------------------------------------------------------


def build_source(spec: Dict[str, Any], store_path=None, fastpath=None):
    """A fresh :class:`XMLSource` for ``spec`` (sqlite specs need
    ``store_path``)."""
    from repro.classification.stores import SqliteStore
    from repro.core.engine import XMLSource
    from repro.core.evolution import EvolutionConfig
    from repro.dtd.parser import parse_dtd

    dtds = [parse_dtd(entry["text"], name=entry["name"]) for entry in spec["dtds"]]
    store = None
    if spec["store"] == "sqlite":
        if store_path is None:
            raise ValueError("a sqlite workload needs a store path")
        store = SqliteStore(store_path)
    return XMLSource(
        dtds, EvolutionConfig(**spec["config"]), fastpath=fastpath, store=store
    )


def close_source(source) -> None:
    source.close()
    close_store = getattr(source.repository.store, "close", None)
    if close_store is not None:
        close_store()


def write_view(outcome) -> list:
    """The comparable shape of one processed document's outcome
    (``repr`` keeps every float digit)."""
    return [
        outcome.dtd_name,
        repr(outcome.similarity),
        list(outcome.evolved),
        outcome.recovered,
    ]


def read_view(result) -> list:
    return [result.dtd_name, repr(result.similarity), result.accepted]


def final_state(source) -> Dict[str, Any]:
    """The serialized DTD set and repository size after a run."""
    from repro.dtd.serializer import serialize_dtd

    return {
        "dtds": {name: serialize_dtd(source.dtd(name)) for name in source.dtd_names()},
        "repository": len(source.repository),
        "evolutions": source.evolution_count,
    }


def digest(views) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(views).encode("utf-8")).hexdigest()


#: every READ_SAMPLE-th read is also classified by the reference run
#: (all of them would dominate its cost: without the validity short
#: circuit a valid document aligns against every DTD)
READ_SAMPLE = 8


def reference(spec: Dict[str, Any], store_path: str) -> Dict[str, Any]:
    """Outcome digests and final state of the spec's batch with every
    fast path off — what each measured pass must reproduce exactly —
    plus the results of every :data:`READ_SAMPLE`-th read."""
    from repro.perf import FastPathConfig
    from repro.xmltree.parser import parse_document

    source = build_source(spec, store_path=store_path, fastpath=FastPathConfig.disabled())
    try:
        outcomes = source.process_many(parse_document(xml) for xml in spec["writes"])
        sample = spec["reads"][::READ_SAMPLE]
        return {
            "writes": digest([write_view(outcome) for outcome in outcomes]),
            "read_sample": [read_view(source.classify(parse_document(xml))) for xml in sample],
            "state": final_state(source),
        }
    finally:
        close_source(source)
