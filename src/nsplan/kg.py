"""Commonsense knowledge-graph store.

Ingests weighted (head, relation, tail) triplets from ConceptNet-style TSV
or from JSONL, indexes them for neighbor queries, and samples hop-bounded
task-relevant subgraphs as sorted arrays of edge ranks. ``AdaptedTriplet``,
a triplet with its task-adapted weight, is made only by
``adaption.adapt_weights``.

A (head, relation, tail) key is stored once: of its copies the heaviest is
kept, the first one on a tie, and the others are counted in
``IngestStats.duplicates``. The graph ranks its edges once, at
construction: rank order is weight descending, then lexicographic on the
key, and it is the order wherever an order is promised. ``triplets`` is the
tuple of stored triplets in rank order; ``weights`` and ``tail_ids`` are
their weights and tail node ids in the same order, as arrays, and
``node_keys`` turns a node id back into its key. A CSR index gives each
node one slice of the ranks of its incident edges (either direction, a
self-loop once), ascending, so a node's neighbors and its ``FANOUT_CAP``
heaviest edges are a slice. Sampling and adaption work on int ranks, and
only the triplets that survive adaption's gates are read as objects.

Relations are plain strings. ``HOUSEHOLD_RELATIONS`` is the one table of
the nine household relations: it maps each to its symbolic rule, a plain
``(template, recursive, phase)`` tuple that ``verbalize`` reads, the phase
one of ``PHASES``. A graph holds only the relations the table names: the
constructor rejects any other relation, and ``ingest`` drops such rows and
counts them in ``IngestStats.dropped_relation``. Ingest interns node keys
and relation names, so equal keys share one string, and weights, so the
triplets of one weight share one float.

A row whose weight is not a finite positive number (a string or a bool is
not a number) is malformed. ``sample_subgraph`` follows the ``FANOUT_CAP``
heaviest triplets of each node it expands.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._files import read_jsonl, read_lines

log = logging.getLogger(__name__)

PHASES = ("Prerequisite", "Body", "Subevent", "LastSubevent")

# relation -> its symbolic rule (template, recursive, phase).
# The UsedFor template reads reversed against the usual head-UsedFor-tail
# direction; it is kept as-is deliberately. See the project notes.
HOUSEHOLD_RELATIONS = {
    "Synonym": ("{head}, also known as {tail}", False, "Body"),
    "AtLocation": ("go to the location of {head}", False, "Body"),
    "CapableOf": ("{head} can {tail}", False, "Body"),
    "Causes": ("{head} causes {tail}", False, "Body"),
    "CausesDesire": ("{head} makes you want to {tail}", False, "Body"),
    "UsedFor": ("go to find {tail} and use it for {head}", False, "Body"),
    "HasPrerequisite": ("{tail}", True, "Prerequisite"),
    "HasSubevent": ("{tail}", True, "Subevent"),
    "HasLastSubevent": ("{tail}", False, "LastSubevent"),
}

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


class KnowledgeGraph:
    """Immutable after construction; all queries are read-only."""

    def __init__(self, triplets=(), stats=None):
        self.stats = stats if stats is not None else IngestStats()
        triplets = list(triplets)
        relations = [t.relation for t in triplets]
        relation_id = {r: i for i, r in enumerate(sorted(set(relations)))}
        if not HOUSEHOLD_RELATIONS.keys() >= relation_id.keys():
            t = next(t for t in triplets if t.relation not in HOUSEHOLD_RELATIONS)
            raise ValueError(f"{t}: {t.relation!r} is not a household relation")
        # Each temporary is dropped as soon as it has been used, and the
        # long-lived tuples of triplets and of node keys are built after
        # the temporary arrays are freed: the arrays come from the C heap, and
        # blocks left live above freed ones keep those pages resident. With
        # glibc, building the two before the CSR index left 1.6 MiB more RSS
        # after loading a 117k-row graph and running 4,000 plans, and other
        # orders 3-6 MiB.
        heads = [t.head for t in triplets]
        tails = [t.tail for t in triplets]
        nodes = sorted(set(heads).union(tails))
        node_id = dict(zip(nodes, range(len(nodes))))
        n = len(triplets)
        head = np.fromiter(map(node_id.__getitem__, heads), np.int32, n)
        tail = np.fromiter(map(node_id.__getitem__, tails), np.int32, n)
        relation = np.fromiter(map(relation_id.__getitem__, relations), np.int32, n)
        weight = np.fromiter([t.weight for t in triplets], np.float64, n)
        del heads, tails, relations, nodes
        # key orders like (head, relation, tail), as ids follow sorted names;
        # it fits an int64 for fewer than about 10**9 nodes. Rank every copy;
        # the sort is stable, so the first copy of a key in rank order is its
        # heaviest, the first one on a tie, and it is the one kept.
        key = (head.astype(np.int64) * len(relation_id) + relation) * len(node_id) + tail
        order = np.lexsort((key, -weight))
        del relation
        order = order[np.sort(np.unique(key[order], return_index=True)[1])]
        del key
        weight = weight[order]
        # CSR index: node i's incident ranks are _ranks[_indptr[i]:_indptr[i + 1]],
        # ascending, a self-loop once; _other holds each entry's far endpoint
        head, tail = head[order], tail[order]
        loop = head == tail
        endpoint = np.concatenate((head, tail[~loop]))
        ranks = np.concatenate(
            (np.arange(len(order), dtype=np.int32), np.flatnonzero(~loop).astype(np.int32))
        )
        by_node = np.argsort(endpoint.astype(np.int64) * len(order) + ranks)  # by (node, rank)
        ranks = ranks[by_node]
        other = np.concatenate((tail, head[~loop]))[by_node]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(endpoint, minlength=len(node_id)))))
        del head, loop, endpoint, by_node
        order = order.tolist()
        self._ordered = tuple(map(triplets.__getitem__, order))
        del order, triplets
        for column in (weight, tail, ranks, other, indptr):
            column.setflags(write=False)
        self._weights, self._tail_ids, self._nodes = weight, tail, tuple(node_id)
        self._ranks, self._other, self._indptr = ranks, other, indptr
        self._node_id = node_id

    @property
    def triplets(self):
        """Every stored triplet, in rank order."""
        return self._ordered

    @property
    def weights(self):
        """Every stored triplet's weight, in rank order: a read-only float64 array."""
        return self._weights

    @property
    def tail_ids(self):
        """Every stored triplet's tail node id, in rank order: a read-only
        int32 array. Node ids number the node keys in sorted order."""
        return self._tail_ids

    @property
    def node_keys(self):
        """The tuple of node keys, sorted: ``node_keys[i]`` is the key of node id i."""
        return self._nodes

    @property
    def edge_count(self):
        return len(self._ordered)

    @property
    def node_count(self):
        return len(self._node_id)

    def __contains__(self, node):
        return node in self._node_id

    def neighbors(self, node):
        """All triplets incident to ``node`` (either direction), in rank
        order, as a new list. Unknown nodes yield an empty list."""
        i = self._node_id.get(node)
        if i is None:
            return []
        ordered = self._ordered
        return [ordered[r] for r in self._ranks[self._indptr[i] : self._indptr[i + 1]].tolist()]


def _parse_conceptnet_uri(uri, column):
    parts = uri.split("/")
    # /c/<lang>/<term>[/...optional sense parts]
    if len(parts) < 4 or parts[0] != "" or parts[1] != "c" or not parts[3]:
        raise ValueError(f"bad concept URI in column {column}: {uri!r}")
    return parts[2], sys.intern(parts[3])


def _weight(value, weights):
    """A row's weight as a float, the one object ``weights`` holds for that
    value; a string or a bool is not a weight."""
    if type(value) not in (int, float):
        raise ValueError(f"weight must be a number, got {value!r}")
    value = float(value)
    return weights.setdefault(value, value)


def _parse_tsv_line(line, weights):
    cols = line.split("\t")
    if len(cols) != 5:
        raise ValueError(f"expected 5 tab-separated columns, got {len(cols)}")
    _, rel_uri, start_uri, end_uri, meta_json = cols
    if not rel_uri.startswith("/r/") or len(rel_uri) <= 3:
        raise ValueError(f"bad relation URI: {rel_uri!r}")
    relation = sys.intern(rel_uri[3:].split("/")[0])
    start_lang, head = _parse_conceptnet_uri(start_uri, 3)
    end_lang, tail = _parse_conceptnet_uri(end_uri, 4)
    try:
        weight = _weight(json.loads(meta_json)["weight"], weights)
    except (KeyError, TypeError, ValueError, RecursionError):
        raise ValueError(f"metadata JSON lacks a numeric weight: {meta_json!r}") from None
    if start_lang != "en" or end_lang != "en":
        return None  # not English: filtered, not malformed
    return Triplet(head, relation, tail, weight)


def _triplet_from_json(obj, weights):
    head, relation, tail, weight = obj["head"], obj["relation"], obj["tail"], obj["weight"]
    if not (isinstance(head, str) and isinstance(relation, str) and isinstance(tail, str)):
        raise ValueError(f"head, relation and tail must be strings: {obj!r}")
    return Triplet(sys.intern(head), sys.intern(relation), sys.intern(tail), _weight(weight, weights))


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
    bad = []
    weights = {}  # a weight repeats across many rows: its triplets share one float
    if fmt == "conceptnet-tsv":
        rows = read_lines(source, lambda line: _parse_tsv_line(line, weights), None if strict else bad)
    else:
        rows = read_jsonl(source, lambda obj: _triplet_from_json(obj, weights), None if strict else bad)

    stats = IngestStats()
    triplets = []
    for t in rows:
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
    expanded; at each expanded node only its first ``FANOUT_CAP`` incident
    edges in rank order are followed. Returns the ranks of the followed
    edges as a sorted int array; ``graph.triplets[r]`` is the triplet of
    rank r.

    The search goes one level at a time: the nodes at distance d are
    expanded together, by gathering their capped CSR slices at once, and
    the far endpoints not yet seen form the next level.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")

    node_id = graph._node_id
    frontier = np.array(sorted({node_id[a] for a in anchors if a in node_id}), np.intp)
    indptr, ranks, other = graph._indptr, graph._ranks, graph._other
    seen = np.zeros(graph.node_count, bool)
    seen[frontier] = True
    followed = []
    for depth in range(hops):
        if not frontier.size:
            break
        lo = indptr[frontier]
        count = np.minimum(indptr[frontier + 1] - lo, FANOUT_CAP)
        end = np.cumsum(count)
        # the positions lo[i] .. lo[i] + count[i] - 1 of every slice, in one array
        at = np.arange(end[-1]) + np.repeat(lo - (end - count), count)
        followed.append(ranks[at])
        if depth + 1 < hops:
            far = other[at]
            frontier = _sorted_unique(far[~seen[far]])
            seen[frontier] = True
    return _sorted_unique(np.concatenate(followed)) if followed else np.empty(0, ranks.dtype)


def _sorted_unique(values):
    """The distinct values, ascending: a sort and one comparison of
    neighbours, cheaper here than ``np.unique``."""
    values = np.sort(values)
    keep = np.empty(len(values), bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
