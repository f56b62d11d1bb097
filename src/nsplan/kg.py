"""Commonsense knowledge-graph store.

Ingests weighted (head, relation, tail) triplets from ConceptNet-style TSV
or from JSONL, indexes them for neighbor queries, and samples hop-bounded
task-relevant subgraphs as plain tuples of the graph's own triplets.
``AdaptedTriplet``, a triplet with its task-adapted weight, is made only by
``adaption.adapt_weights``.

A (head, relation, tail) key is stored once: of its copies the heaviest is
kept, the first one on a tie, and the others are counted in
``IngestStats.duplicates``. Triplets are ordered by weight descending, then
lexicographically on the key, wherever an order is promised.

Relations are plain strings, and a graph holds only the nine household
relations below: the constructor rejects any other relation, and ``ingest``
drops such rows and counts them in ``IngestStats.dropped_relation``.

A row whose weight is not a finite positive number (a string or a bool is
not a number) is malformed. ``sample_subgraph`` follows the ``FANOUT_CAP``
heaviest triplets of each node it expands.
"""

from __future__ import annotations

import json
import logging
import math
from collections import deque
from dataclasses import dataclass

from ._files import read_lines

log = logging.getLogger(__name__)

HOUSEHOLD_RELATIONS = frozenset(
    {
        "Synonym",
        "AtLocation",
        "CapableOf",
        "Causes",
        "CausesDesire",
        "HasPrerequisite",
        "HasSubevent",
        "HasLastSubevent",
        "UsedFor",
    }
)

FANOUT_CAP = 100


def surface(key):
    """Readable text of a node key: node keys are lowercase words joined by
    underscores, so the underscores become spaces."""
    return key.replace("_", " ")


@dataclass(frozen=True, slots=True)
class Triplet:
    head: str
    relation: str
    tail: str
    weight: float = 1.0

    def __post_init__(self):
        if not self.head or not self.tail:
            raise ValueError("triplet head and tail must be nonempty")
        if not 0 < self.weight < math.inf:
            raise ValueError(f"triplet weight must be a finite positive number, got {self.weight}")

    @property
    def key(self):
        return (self.head, self.relation, self.tail)


@dataclass(frozen=True)
class AdaptedTriplet:
    """A sampled triplet with its task-adapted weight, as
    ``adaption.adapt_weights`` makes it."""

    head: str
    relation: str
    tail: str
    weight: float
    adapted_weight: float

    @property
    def key(self):
        return (self.head, self.relation, self.tail)

    @property
    def cosine(self):
        """Task-relevance cosine recovered from the adaption identity."""
        return self.adapted_weight - self.weight


def adapted_sort_key(t):
    """Adapted weight descending, then lexicographic: selection and knowledge-line order."""
    return (-t.adapted_weight, t.head, t.relation, t.tail)


@dataclass
class IngestStats:
    dropped_relation: int = 0
    dropped_language: int = 0
    dropped_malformed: int = 0
    duplicates: int = 0

    @property
    def dropped(self):
        return self.dropped_relation + self.dropped_language + self.dropped_malformed


def _triplet_sort_key(t):
    return (-t.weight, t.head, t.relation, t.tail)


class KnowledgeGraph:
    """Immutable after construction; all queries are read-only."""

    def __init__(self, triplets=(), stats=None):
        self.stats = stats if stats is not None else IngestStats()
        by_key = {}
        for t in triplets:
            if t.relation not in HOUSEHOLD_RELATIONS:
                raise ValueError(f"{t}: {t.relation!r} is not a household relation")
            prior = by_key.get(t.key)
            if prior is None or t.weight > prior.weight:
                by_key[t.key] = t
        # the key index is only needed to dedup: dropping it frees a dict and
        # a key tuple per edge
        self._unique = tuple(by_key.values())
        self._incident = {}  # node -> list of triplets touching it, either direction
        for t in self._unique:
            self._incident.setdefault(t.head, []).append(t)
            if t.tail != t.head:
                self._incident.setdefault(t.tail, []).append(t)
        for lst in self._incident.values():
            lst.sort(key=_triplet_sort_key)

    @property
    def triplets(self):
        return tuple(sorted(self._unique, key=_triplet_sort_key))

    @property
    def edge_count(self):
        return len(self._unique)

    @property
    def node_count(self):
        return len(self._incident)

    def __contains__(self, node):
        return node in self._incident

    def __len__(self):
        return self.edge_count

    def neighbors(self, node):
        """All triplets incident to ``node`` (either direction), in (weight
        desc, lexicographic) order. Unknown nodes yield an empty list."""
        return list(self._incident.get(node, ()))


def _parse_conceptnet_uri(uri, column):
    parts = uri.split("/")
    # /c/<lang>/<term>[/...optional sense parts]
    if len(parts) < 4 or parts[0] != "" or parts[1] != "c" or not parts[3]:
        raise ValueError(f"bad concept URI in column {column}: {uri!r}")
    return parts[2], parts[3]


def _weight(value):
    """A row's weight as a float; a string or a bool is not a weight."""
    if type(value) not in (int, float):
        raise ValueError(f"weight must be a number, got {value!r}")
    return float(value)


def _parse_tsv_line(line):
    cols = line.split("\t")
    if len(cols) != 5:
        raise ValueError(f"expected 5 tab-separated columns, got {len(cols)}")
    _, rel_uri, start_uri, end_uri, meta_json = cols
    if not rel_uri.startswith("/r/") or len(rel_uri) <= 3:
        raise ValueError(f"bad relation URI: {rel_uri!r}")
    relation = rel_uri[3:].split("/")[0]
    start_lang, head = _parse_conceptnet_uri(start_uri, 3)
    end_lang, tail = _parse_conceptnet_uri(end_uri, 4)
    try:
        weight = _weight(json.loads(meta_json)["weight"])
    except (KeyError, TypeError, ValueError, RecursionError):
        raise ValueError(f"metadata JSON lacks a numeric weight: {meta_json!r}") from None
    if start_lang != "en" or end_lang != "en":
        return None  # not English: filtered, not malformed
    return Triplet(head, relation, tail, weight)


def _parse_jsonl_line(line):
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    head, relation, tail, weight = obj["head"], obj["relation"], obj["tail"], obj["weight"]
    if not (isinstance(head, str) and isinstance(relation, str) and isinstance(tail, str)):
        raise ValueError(f"head, relation and tail must be strings: {line!r}")
    return Triplet(head, relation, tail, _weight(weight))


def ingest(source, fmt="conceptnet-tsv", strict=False):
    """Build a KnowledgeGraph from a path, a byte/text stream or an iterable of lines.

    ``fmt`` is "conceptnet-tsv" (5 tab-separated columns, JSON metadata with a
    weight field) or "jsonl" (one object per line, fields head/relation/tail/
    weight). Only English ConceptNet rows are kept: a row with an endpoint
    in another language is counted in ``stats.dropped_language``. A
    malformed line raises InputError, naming the file and line, in strict
    mode and is counted in ``stats.dropped_malformed`` otherwise. The
    returned graph carries a ``stats`` record of dropped and duplicate line
    counts; the kept count is ``graph.edge_count``.
    """
    if fmt not in ("conceptnet-tsv", "jsonl"):
        raise ValueError(f"unknown ingest format: {fmt!r}")
    parse = _parse_tsv_line if fmt == "conceptnet-tsv" else _parse_jsonl_line

    stats = IngestStats()
    triplets = []
    bad = []
    for t in read_lines(source, parse, None if strict else bad):
        if t is None:
            stats.dropped_language += 1
            continue
        if t.relation not in HOUSEHOLD_RELATIONS:
            stats.dropped_relation += 1
            continue
        triplets.append(t)
    for err in bad:
        log.debug("skipping malformed line: %s", err)

    graph = KnowledgeGraph(triplets, stats=stats)
    stats.dropped_malformed = len(bad)
    stats.duplicates = len(triplets) - graph.edge_count
    if graph.edge_count == 0:
        log.warning("ingestion produced an empty graph (%d lines dropped)", stats.dropped)
    return graph


def load_graph(path, fmt="conceptnet-tsv", **kwargs):
    return ingest(path, fmt=fmt, **kwargs)


def sample_subgraph(graph, anchors, hops):
    """Breadth-first sample of the hop-bounded ball around the anchor nodes.

    Traversal is undirected. Only nodes strictly closer than ``hops`` are
    expanded; at each expanded node only its top ``FANOUT_CAP``
    incident triplets by weight (ties lexicographic) are followed. Returns a
    tuple of the graph's own triplets in (weight desc, lexicographic) order.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")

    dist = {a: 0 for a in sorted(set(anchors)) if a in graph}
    included = set()
    queue = deque(dist)
    while queue:
        node = queue.popleft()
        d = dist[node]
        if d >= hops:
            continue
        for t in graph.neighbors(node)[:FANOUT_CAP]:
            included.add(t)
            other = t.tail if t.head == node else t.head
            if other not in dist:
                dist[other] = d + 1
                queue.append(other)
    return tuple(sorted(included, key=_triplet_sort_key))
