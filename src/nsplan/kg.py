"""Commonsense knowledge-graph store.

Ingests weighted (head, relation, tail) triplets from ConceptNet-style TSV
or from JSONL, indexes each node's incident edges, and samples hop-bounded
task-relevant subgraphs as sorted arrays of edge ranks. ``AdaptedTriplet``,
a triplet with its task-adapted weight, is made only by
``adaption.adapt_weights``, through ``triplets``.

A (head, relation, tail) key is stored once: of its copies the heaviest is
kept, the first one on a tie, and the others are counted in
``IngestStats.duplicates``. The graph ranks its edges once, at
construction: rank order is weight descending, then lexicographic on the
key, and it is the order wherever an order is promised. Edges are stored
only as arrays in rank order: the attributes ``weights`` and ``tail_ids``
and private head-id and relation-id columns. The attribute ``node_keys``
turns a node id back into its key, ``triplets(ranks)`` builds the
``Triplet``s of many ranks with one gather per column, and ``triplet(r)``
is its one-rank case. A CSR index gives each node one slice of the ranks
of its incident edges (either direction, a self-loop once), ascending, so
a node's ``FANOUT_CAP`` heaviest edges are a slice. Sampling and adaption
work on int ranks.

A sample is the sorted distinct union of its anchors' balls, the sample of
each anchor alone: a node is expanded when it is fewer than ``hops`` steps
from the anchor set, its least distance to any anchor, so the expanded
nodes, and the capped slices they follow, are the union of each anchor's.
Each graph keeps a table of balls, keyed weakly by graph and filled under
one lock, so an anchor that many tasks share is walked once per ``hops``
and cap. The table is an ``embeddings.Memo`` bounded by
``embeddings.MEMO_BUDGET_BYTES``: an entry costs its ranks' bytes plus
``_BALL_ENTRY_BYTES``, an insert that would pass the bound clears the
table whole first, and ``ball_clears`` counts those clears.

Relations are plain strings. ``HOUSEHOLD_RELATIONS`` is the one table of
the nine household relations: it maps each to its symbolic rule, a plain
``(template, recursive, phase)`` tuple that ``verbalize`` reads, the phase
one of ``PHASES``. A graph holds only the relations the table names: the
constructor rejects any other relation, and ``ingest`` drops such rows and
counts them in ``IngestStats.dropped_relation``. Ingest interns node keys
and relation names, so equal keys share one string.

The row rule: head and tail are nonempty, the weight a finite positive
number (a string or a bool is not a number). It is applied once per row,
where rows enter the program: ingest applies it to each parsed row, as the
``build`` of ``_files.read_chunks``, counts a row that breaks it as
malformed at its own line, and hands the rows that pass to the
column-building body unchecked; the constructor applies it, and the
household check, to each row it is given and raises ValueError.

Both formats are parsed a chunk at a time by ``_files.read_chunks``: JSONL
by ``read_jsonl``'s one ``json.loads`` per chunk, ConceptNet TSV by
``_tsv_chunk``, which reads the chunk's lines with ``_tsv_fields`` and
decodes each metadata cell with ``_files.json_object``. ``_tsv_fields``
holds the line rules once: the per-line path, ``_parse_tsv_line``, runs
it on a list of one line, with ``json.loads``. A chunk with a line that
fails there, a cell that ``json_object`` leaves to ``json.loads``
included, is read by the per-line path, so bad-line messages and line
numbers are the per-line reader's. ``to_jsonl`` writes the graph back as
JSONL from its columns.
"""

from __future__ import annotations

import json
import logging
import math
import sys
import threading
import weakref
from array import array
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import embeddings
from ._files import json_object, read_chunks, read_jsonl

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


def _row(head, relation, tail, weight):
    """The row rule: ``(head, relation, tail, weight)`` with the weight as a
    float, or ValueError naming what is wrong."""
    if type(weight) not in (int, float):
        raise ValueError(f"weight must be a number, got {weight!r}")
    weight = float(weight)
    if not head or not tail:
        raise ValueError("triplet head and tail must be nonempty")
    if not 0 < weight < math.inf:
        raise ValueError(f"triplet weight must be a finite positive number, got {weight}")
    return head, relation, tail, weight


class Triplet(namedtuple("Triplet", "head relation tail weight")):
    """A stored (head, relation, tail, weight) row, as ``graph.triplets``
    builds it; the row passed the row rule when the graph was built."""

    __slots__ = ()

    @property
    def key(self):
        return (self.head, self.relation, self.tail)


class AdaptedTriplet(namedtuple("AdaptedTriplet", Triplet._fields + ("adapted_weight",))):
    """A sampled triplet with its task-adapted weight, as
    ``adaption.adapt_weights`` makes it."""

    __slots__ = ()

    key = Triplet.key


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
    """Immutable after construction; all queries are read-only.

    ``weights`` holds every stored triplet's weight in rank order, a
    read-only float64 array. ``tail_ids`` holds every stored triplet's tail
    node id in rank order, a read-only int32 array; node ids number the
    node keys in sorted order. ``node_keys`` is the tuple of node keys,
    sorted: ``node_keys[i]`` is the key of node id i.
    """

    def __init__(self, triplets):
        """``triplets`` are (head, relation, tail, weight) rows, such as
        ``Triplet``s, each checked by the row rule and the household table;
        ``stats.duplicates`` counts the rows that repeat a stored key."""
        self._build(_checked(triplets), IngestStats())

    @classmethod
    def _of_checked(cls, rows, stats):
        """The graph of ``rows`` that already passed the row rule and hold a
        household relation: ingest's rows, so each row is checked once."""
        graph = cls.__new__(cls)
        graph._build(rows, stats)
        return graph

    def _build(self, rows, stats):
        """Fill the columns and the index from ``rows``; ``stats`` becomes
        the graph's, its ``duplicates`` set here."""
        self.stats = stats
        heads, relations, tails, weights = [], [], [], array("d")
        for head, relation, tail, weight in rows:
            heads.append(head)
            relations.append(relation)
            tails.append(tail)
            weights.append(weight)
        # each temporary is dropped once used, to keep the ingest peak low
        relation_names = tuple(sorted(set(relations)))
        relation_id = {r: i for i, r in enumerate(relation_names)}
        nodes = set(heads)
        nodes.update(tails)  # in place: the union holds one set, not two
        nodes = tuple(sorted(nodes))
        node_id = dict(zip(nodes, range(len(nodes))))
        n = len(heads)
        head = np.fromiter(map(node_id.__getitem__, heads), np.int32, n)
        tail = np.fromiter(map(node_id.__getitem__, tails), np.int32, n)
        relation = np.fromiter(map(relation_id.__getitem__, relations), np.int8, n)
        weight = np.frombuffer(weights, np.float64)
        del heads, tails, relations
        # key orders like (head, relation, tail), as ids follow sorted names;
        # it fits an int64 for fewer than about 10**9 nodes. Rank every copy;
        # the sort is stable, so the first copy of a key in rank order is its
        # heaviest, the first one on a tie, and it is the one kept.
        key = (head.astype(np.int64) * len(relation_id) + relation) * len(node_id) + tail
        order = np.lexsort((key, -weight))
        order = order[np.sort(np.unique(key[order], return_index=True)[1])]
        del key
        self.stats.duplicates = n - len(order)
        weight, relation, head, tail = weight[order], relation[order], head[order], tail[order]
        del weights
        # CSR index: node i's incident ranks are _ranks[_indptr[i]:_indptr[i + 1]],
        # ascending, a self-loop once; _other holds each entry's far endpoint
        loop = head == tail
        endpoint = np.concatenate((head, tail[~loop]))
        ranks = np.concatenate(
            (np.arange(len(order), dtype=np.int32), np.flatnonzero(~loop).astype(np.int32))
        )
        by_node = np.argsort(endpoint.astype(np.int64) * len(order) + ranks)  # by (node, rank)
        ranks = ranks[by_node]
        other = np.concatenate((tail, head[~loop]))[by_node]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(endpoint, minlength=len(node_id)))))
        del order, loop, endpoint, by_node
        for column in (head, relation, tail, weight, ranks, other, indptr):
            column.setflags(write=False)
        self._head_ids, self._relation_ids, self.tail_ids, self.weights = head, relation, tail, weight
        self._ranks, self._other, self._indptr = ranks, other, indptr
        self._relation_names, self.node_keys, self._node_id = relation_names, nodes, node_id

    def triplet(self, rank):
        """The stored triplet of rank ``rank``: ``triplets`` of one rank."""
        return self.triplets([rank])[0]

    def triplets(self, ranks, adapted=None):
        """The stored triplets of ``ranks``, in their order, as a list of
        ``Triplet``s built from the columns: the head, relation, tail and
        weight columns are read with one gather and one ``tolist`` each.
        Each row passed the row rule when the graph was built. Given
        ``adapted``, the adapted weight of each rank, the rows are
        ``AdaptedTriplet``s: ``adaption.adapt_weights`` builds its kept
        triplets so."""
        nodes, relations = self.node_keys, self._relation_names
        columns = (
            map(nodes.__getitem__, self._head_ids[ranks].tolist()),
            map(relations.__getitem__, self._relation_ids[ranks].tolist()),
            map(nodes.__getitem__, self.tail_ids[ranks].tolist()),
            self.weights[ranks].tolist(),
        )
        if adapted is None:
            return list(map(Triplet._make, zip(*columns)))
        return list(map(AdaptedTriplet._make, zip(*columns, adapted)))

    def to_jsonl(self):
        """The stored triplets in rank order as JSONL text: line r is
        ``json.dumps(row, sort_keys=True)`` of rank r's row, a dict of its
        head, relation, tail and weight. Each node key and relation is
        encoded once, and a weight is written as JSON writes a finite
        float, by ``float.__repr__``."""
        keys = [json.dumps(key) for key in self.node_keys]
        relations = [json.dumps(name) for name in self._relation_names]
        columns = self._head_ids.tolist(), self._relation_ids.tolist(), self.tail_ids.tolist(), self.weights.tolist()
        return "".join(
            f'{{"head": {keys[h]}, "relation": {relations[r]}, "tail": {keys[t]}, "weight": {w!r}}}\n'
            for h, r, t, w in zip(*columns)
        )

    @property
    def edge_count(self):
        return len(self.weights)

    @property
    def node_count(self):
        return len(self._node_id)

    def __contains__(self, node):
        return node in self._node_id


def _checked(rows):
    """``rows`` under the row rule, each holding a household relation; the
    first row that breaks either raises ValueError."""
    for row in rows:
        row = _row(*row)
        if row[1] not in HOUSEHOLD_RELATIONS:
            raise ValueError(f"{Triplet._make(row)}: {row[1]!r} is not a household relation")
        yield row


def _parse_conceptnet_uri(uri, column):
    parts = uri.split("/")
    # /c/<lang>/<term>[/...optional sense parts]
    if len(parts) < 4 or parts[0] != "" or parts[1] != "c" or not parts[3]:
        raise ValueError(f"bad concept URI in column {column}: {uri!r}")
    return parts[2], sys.intern(parts[3])


def _tsv_fields(lines, decode):
    """(head, relation, tail, weight) of each of ``lines``, TSV lines, before
    the row rule, or None for a row not in English; the first bad line
    raises ValueError saying what is bad. ``decode`` reads a metadata cell:
    ``json.loads`` on the per-line path, ``json_object`` on the chunk path,
    where a cell it gives None for is bad. Each distinct relation URI is
    checked once."""
    relations, fields = {}, []
    for line in lines:
        cols = line.split("\t")
        if len(cols) != 5:
            raise ValueError(f"expected 5 tab-separated columns, got {len(cols)}")
        _, rel_uri, start_uri, end_uri, meta_json = cols
        relation = relations.get(rel_uri)
        if relation is None:
            if not rel_uri.startswith("/r/") or len(rel_uri) <= 3:
                raise ValueError(f"bad relation URI: {rel_uri!r}")
            relation = relations[rel_uri] = sys.intern(rel_uri[3:].split("/")[0])
        start_lang, head = _parse_conceptnet_uri(start_uri, 3)
        end_lang, tail = _parse_conceptnet_uri(end_uri, 4)
        try:
            weight = decode(meta_json)["weight"]
        except (KeyError, TypeError, ValueError, RecursionError):
            weight = None
        if type(weight) not in (int, float):  # a string or a bool is not a weight
            raise ValueError(f"metadata JSON lacks a numeric weight: {meta_json!r}")
        # not English: filtered, not malformed
        fields.append(None if start_lang != "en" or end_lang != "en" else (head, relation, tail, weight))
    return fields


def _tsv_row(fields):
    """The row of ``_tsv_fields``' fields, under the row rule; None stays None."""
    return None if fields is None else _row(*fields)


def _parse_tsv_line(line):
    """The row of one TSV line, or None for a row not in English: the
    per-line path."""
    return _tsv_row(_tsv_fields([line], json.loads)[0])


def _tsv_chunk(lines):
    """``_tsv_fields`` of ``lines``, a chunk of TSV lines; None when one is
    bad, and the chunk then takes the per-line path."""
    try:
        return _tsv_fields(lines, json_object)
    except ValueError:
        return None


def _triplet_from_json(obj):
    head, relation, tail, weight = obj["head"], obj["relation"], obj["tail"], obj["weight"]
    if not (isinstance(head, str) and isinstance(relation, str) and isinstance(tail, str)):
        raise ValueError(f"head, relation and tail must be strings: {obj!r}")
    return _row(sys.intern(head), sys.intern(relation), sys.intern(tail), weight)


def _household(rows, stats):
    """The rows in English with a household relation; the others are
    counted in ``stats``."""
    for row in rows:
        if row is None:
            stats.dropped_language += 1
        elif row[1] not in HOUSEHOLD_RELATIONS:
            stats.dropped_relation += 1
        else:
            yield row


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
    if fmt == "conceptnet-tsv":
        rows = read_chunks(source, _tsv_chunk, _tsv_row, _parse_tsv_line, None if strict else bad)
    else:
        rows = read_jsonl(source, _triplet_from_json, None if strict else bad)
    stats = IngestStats()
    graph = KnowledgeGraph._of_checked(_household(rows, stats), stats)
    for err in bad:
        log.debug("skipping malformed line: %s", err)
    stats.dropped_malformed = len(bad)
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
    edges as a sorted int array, the caller's own; ``graph.triplet(r)`` is
    the triplet of rank r.

    The sample is the sorted distinct union of the anchors' balls, a ball
    being the sample of one anchor. That union is exact: the followed edges
    are the capped slices of the expanded nodes, a node is expanded when it
    is fewer than ``hops`` steps from the anchor set, and a node's distance
    to a set is its least distance to any member. Each ball is read from
    the graph's table, keyed by (node id, ``hops``, ``FANOUT_CAP``) with the
    cap read at this call; a ball the table lacks is walked by ``_ball``
    and stored.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    node_id = graph._node_id
    keys = [(node, hops, FANOUT_CAP) for node in {node_id[a] for a in anchors if a in node_id}]
    table = _balls(graph)
    with table.lock:
        balls = [table.entries.get(key) for key in keys]
    for i, key in enumerate(keys):
        if balls[i] is None:
            balls[i] = _ball(graph, *key)
            with table.lock:
                table.insert(key, balls[i], balls[i].nbytes + _BALL_ENTRY_BYTES)
    if len(balls) == 1:
        return balls[0].copy()
    return _sorted_unique(np.concatenate(balls)) if balls else np.empty(0, graph._ranks.dtype)


def _ball(graph, node, hops, cap):
    """The ranks the sample of node id ``node`` alone follows, sorted,
    distinct and read-only, each expanded node following its first ``cap``
    ranks.

    The search goes one level at a time: the nodes at distance d are
    expanded together, by gathering their capped CSR slices at once, and
    the far endpoints not yet seen form the next level.
    """
    frontier = np.array([node], np.intp)
    indptr, ranks, other = graph._indptr, graph._ranks, graph._other
    seen = np.zeros(graph.node_count, bool)
    seen[frontier] = True
    followed = []
    for depth in range(hops):
        if not frontier.size:
            break
        lo = indptr[frontier]
        at = embeddings.positions(lo, np.minimum(indptr[frontier + 1] - lo, cap))
        followed.append(ranks[at])
        if depth + 1 < hops:
            far = other[at]
            frontier = _sorted_unique(far[~seen[far]])
            seen[frontier] = True
    ball = _sorted_unique(np.concatenate(followed)) if followed else np.empty(0, ranks.dtype)
    ball.setflags(write=False)
    return ball


_BALLS = weakref.WeakKeyDictionary()  # graph -> its table of balls, an embeddings.Memo
_BALLS_LOCK = threading.Lock()
# a table entry's bytes besides its ranks: its key, its dict slot and the
# array's header; tracemalloc read 214-232 B an entry on 64-bit CPython 3.11
_BALL_ENTRY_BYTES = 240


def _balls(graph):
    """``graph``'s table of balls, made empty on first use."""
    table = _BALLS.get(graph)
    if table is None:
        with _BALLS_LOCK:
            table = _BALLS.setdefault(graph, embeddings.Memo(_BALLS_LOCK))
    return table


def ball_clears(graph):
    """How many times ``graph``'s table of balls cleared at ``MEMO_BUDGET_BYTES``."""
    table = _BALLS.get(graph)
    return table.clears if table is not None else 0


def _sorted_unique(values):
    """The distinct values, ascending: a sort and one comparison of
    neighbours, cheaper here than ``np.unique``."""
    values = np.sort(values)
    keep = np.empty(len(values), bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
