"""Task-directed re-weighting and selection of subgraph triplets.

Adaption takes the graph and the ranks ``kg.sample_subgraph`` returns and
turns the sampled triplets that pass both thresholds into
``AdaptedTriplet``s, the only place they are made: each adapted weight is
the original weight plus the cosine between the tail node's text and the
task text. It gathers weights and tails from the graph's rank-order
columns ``weights`` and ``tail_ids``, reads each distinct tail's vector by
node id from the graph's node store, scores every distinct tail with one
gather and takes the exact cosine only for the tails that score cannot
rule out, so its output is bit-equal to scoring each tail exactly. The
exact pass rebuilds those tails' rows into one block with one scatter and
takes one ``np.dot`` per row: ``embeddings.cosine_of_dot`` over that dot,
the node's stored norm and the task vector's norm, taken once per call,
is ``cosine`` of the two vectors bit for bit. It builds triplets, with
one ``graph.triplets`` gather, only for the ranks it keeps.
Selection then ranks tail nodes by their best incident adapted weight and
keeps the top min(k, concept_ratio * task token count) nodes; it takes and
returns a plain tuple of adapted triplets.

The node store (``NodeStore``) keeps one provider's ``embed`` vectors of a
graph's nodes in compressed rows, as in Saad, *Iterative Methods for
Sparse Linear Systems* (2003), section 3.4: the entries whose bits are not
all zero (``-0.0`` included) as float64 values and int32 dimensions in two
flat arrays, and a start, a length and a float64 norm per node, the start
-1 until the node is filled. A node is filled the first time adaption
names it as a tail, through ``embed_many``, so a row rebuilt from the
store is bit-equal to ``embed`` of the node's text (every entry not held
is +0.0) and a filled node asks the text memo nothing. Its norm is
``embeddings.row_norms`` of that row, taken at the fill, so the exact
pass takes no norm of a node. Stores are kept in a table keyed weakly by
graph, so a store lives as long as its graph; a store is tagged with its
provider and replaced whole when another provider asks, as an
``AdmissibleSet`` replaces its grounding. A store's bytes, its per-node
starts, lengths and norms included (16 B a node, filled or not: 1.2 MiB
on an 80,000-node graph), are bounded by ``embeddings.MEMO_BUDGET_BYTES``:
a fill that would pass the bound replaces the store whole with one
holding only the calling tails, their norms carried with their entries,
or, when even those would pass it, with an empty one, as a ``Memo``
clears; ``store_clears`` counts those replacements.

Threads of a ``--jobs`` run share one graph and provider. Fills are made
under one lock; the entry arrays grow by doubling, and a grown pair is
published by one store, and a node's norm written, before any node's
start is set, so a thread that reads a node's start reads entries that
hold the node's row, and its norm. Filled entries and norms never
change, so reading needs no lock.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from . import embeddings
from .entities import tokenize
from .kg import adapted_sort_key, surface

_ENTRY_BYTES = 12  # a float64 value and an int32 dimension


class NodeStore:
    """One provider's unit vectors of a graph's nodes, filled on first use.

    Node i's nonzero entries are ``entries[0][s:s + length[i]]`` (values)
    and ``entries[1][s:s + length[i]]`` (dimensions), ``s = start[i]``, and
    ``norm[i]`` is ``embeddings.row_norms`` of its rebuilt row; ``start[i]``
    is -1 while node i is unfilled. Entries from ``used`` on are spare
    capacity. ``clears`` counts the stores replaced before this
    one because a fill would pass the budget.
    """

    def __init__(self, provider, node_count, clears):
        self.provider = provider
        self.start = np.full(node_count, -1, np.int32)
        self.length = np.zeros(node_count, np.int32)
        self.norm = np.zeros(node_count)
        self.entries = (np.empty(0), np.empty(0, np.int32))  # replaced by one store
        self.used = 0
        self.clears = clears

    @property
    def nbytes(self):
        return sum(a.nbytes for a in (self.start, self.length, self.norm, *self.entries))

    def room(self):
        """How many more entries ``MEMO_BUDGET_BYTES`` lets the store hold."""
        fixed = self.start.nbytes + self.length.nbytes + self.norm.nbytes
        return (embeddings.MEMO_BUDGET_BYTES - fixed) // _ENTRY_BYTES - self.used

    def rows(self, nodes):
        """(start, length, norm, values, dims) of ``nodes``, all filled; the
        starts are read first, the entries last."""
        return self.start[nodes], self.length[nodes], self.norm[nodes], *self.entries

    def add(self, nodes, length, norm, values, dims):
        """Fill ``nodes`` with the norms ``norm`` and with ``length`` entries
        each, taken in order from ``values`` and ``dims``. The caller holds
        the lock, or alone holds the store. Spare capacity is filled in
        place; otherwise the entries move to arrays twice as large, or as
        large as the budget allows, or as large as they need. A node's norm
        is written before its start, as its entries are."""
        need = self.used + len(values)
        stored = self.entries
        if need > len(stored[0]):
            cap = max(need, min(2 * len(stored[0]), self.used + self.room()))
            grown = np.empty(cap), np.empty(cap, np.int32)
            for old, new in zip(stored, grown):
                new[:self.used] = old[:self.used]
            stored = grown
        stored[0][self.used:need] = values
        stored[1][self.used:need] = dims
        self.entries = stored
        self.length[nodes] = length
        self.norm[nodes] = norm
        self.start[nodes] = self.used + np.cumsum(length) - length
        self.used = need

    def take(self, nodes):
        """(nodes, length, norm, values, dims) of the filled ``nodes``, as
        ``add`` takes them."""
        start, length, norm, values, dims = self.rows(nodes)
        pos = _positions(start, length)
        return nodes, length, norm, values[pos], dims[pos]


_STORES = weakref.WeakKeyDictionary()  # graph -> its NodeStore
_STORES_LOCK = threading.Lock()


def store_clears(graph, provider):
    """How many times ``graph``'s node store for ``provider`` was replaced
    because a fill would pass ``MEMO_BUDGET_BYTES``; zero while the graph
    holds no store of it."""
    store = _STORES.get(graph)
    return store.clears if store is not None and store.provider is provider else 0


def _positions(start, length):
    """The positions start[i] .. start[i] + length[i] - 1 of every node, in one array."""
    end = np.cumsum(length)
    return np.arange(end[-1] if len(end) else 0) + np.repeat(start - (end - length), length)


def _store(graph, provider, nodes):
    """A node store of ``graph`` for ``provider`` that holds every one of
    ``nodes``. The missing nodes, in the order of ``nodes``, are embedded
    with one ``embed_many`` before anything is written, so a provider that
    fails leaves the store as it was. When their entries would pass the
    budget the store is replaced by one that holds ``nodes`` alone; when
    even those would pass it, an empty store is published and the one
    returned is this call's own."""
    store = _STORES.get(graph)
    if store is not None and store.provider is provider and (store.start[nodes] >= 0).all():
        return store
    with _STORES_LOCK:
        store = _STORES.get(graph)
        if store is None or store.provider is not provider:
            store = NodeStore(provider, graph.node_count, 0)
        missing = nodes[store.start[nodes] < 0]
        if missing.size:
            keys = graph.node_keys
            rows = embeddings.embed_many(provider, [surface(keys[i]) for i in missing.tolist()])
            held = rows.view(np.int64) != 0  # -0.0 has a set bit
            at, dims = np.nonzero(held)
            # every entry not held is +0.0, so a rebuilt row is bit-equal to its row here
            batch = missing, held.sum(axis=1), embeddings.row_norms(rows), rows[at, dims], dims
            if len(batch[3]) > store.room():
                batch = [np.concatenate(pair) for pair in zip(store.take(nodes[store.start[nodes] >= 0]), batch)]
                store = NodeStore(provider, graph.node_count, store.clears + 1)
            store.add(*batch)
        _STORES[graph] = store if store.room() >= 0 else NodeStore(provider, graph.node_count, store.clears)
    return store


def adapt_weights(graph, ranks, task_text, provider, cfg):
    """Return the triplets of ``ranks`` in ``graph`` that pass both
    thresholds as AdaptedTriplets with adapted_weight = weight +
    cosine(tail text, task text), in the order of ``ranks``. ``cfg`` is a
    PlannerConfig; only its edge_threshold and cos_keep_threshold are read.

    A triplet is kept when its adapted weight is at least edge_threshold and
    its task-relevance cosine, recovered as adapted_weight - weight, is at
    least cos_keep_threshold. The weights and tail ids are gathered from the
    graph's rank-order columns ``graph.weights`` and ``graph.tail_ids``. The
    distinct tails, in order of first appearance, are read from the graph's
    node store; those it lacks are filled first, with one ``embed_many``.
    One gather scores them all: ``np.bincount`` sums each tail's nonzero
    entries times the task vector's entries at their dimensions. That sum
    lies far within SHORTLIST_MARGIN of the exact ``cosine``, by
    ``best_rows``' premise, so score + margin bounds it from above, and both
    gates, rounding included, are monotone in the cosine: a triplet that
    fails them at that ceiling fails them exactly. Only the tails of the
    triplets left, a few in a real plan, are scored exactly: their distinct
    tails' rows are rebuilt from the store bit for bit into one block, and
    each is scored by ``cosine_of_dot`` over one ``np.dot`` with the task
    vector and the two norms, ``cosine``'s own arithmetic. The gates are
    applied again to those exact values, so every kept triplet and adapted
    weight is bit-equal to a scan that scores every tail with ``cosine``.
    Only the kept triplets are built, by one ``graph.triplets`` call.
    """
    task_vec = embeddings.embed(provider, task_text)
    ranks = np.asarray(ranks, np.intp)
    tails = graph.tail_ids[ranks]
    n = len(tails)
    at = np.arange(n)
    # each tail's first position, the least of its positions: only the
    # entries of these tails are set and read. Nodes follow first appearance.
    first = np.empty(graph.node_count, np.intp)
    first[tails] = n
    np.minimum.at(first, tails, at)
    first = first[tails]
    is_first = first == at
    tail_row = (np.cumsum(is_first) - 1)[first]
    nodes = tails[is_first]
    start, length, norm, values, dims = _store(graph, provider, nodes).rows(nodes)
    pos = _positions(start, length)
    score = np.bincount(np.repeat(np.arange(len(nodes)), length), values[pos] * task_vec[dims[pos]], len(nodes))
    weight = graph.weights[ranks]
    ceiling = weight + (np.clip(score, -1.0, 1.0) + embeddings.SHORTLIST_MARGIN)[tail_row]
    shortlist = np.flatnonzero((ceiling >= cfg.edge_threshold) & (ceiling - weight >= cfg.cos_keep_threshold))
    shortlist_rows = tail_row[shortlist]
    # the exact pass: the distinct shortlisted rows rebuilt into one block, one dot each
    shortlisted = np.zeros(len(nodes), bool)
    shortlisted[shortlist_rows] = True
    exact_rows = np.flatnonzero(shortlisted)
    block = np.zeros((len(exact_rows), len(task_vec)))
    entries = _positions(start[exact_rows], length[exact_rows])
    block[np.repeat(np.arange(len(exact_rows)), length[exact_rows]), dims[entries]] = values[entries]
    task_norm = embeddings.row_norms(task_vec[np.newaxis]).item()
    exact = np.empty(len(nodes))
    exact[exact_rows] = [
        embeddings.cosine_of_dot(np.dot(row, task_vec), row_norm, task_norm)
        for row, row_norm in zip(block, norm[exact_rows].tolist())
    ]
    weight = weight[shortlist]
    adapted = weight + exact[shortlist_rows]
    kept = (adapted >= cfg.edge_threshold) & (adapted - weight >= cfg.cos_keep_threshold)
    return tuple(graph.triplets(ranks[shortlist[kept]], adapted[kept].tolist()))


def select(triplets, cfg, task_text):
    """Rank and cap the adapted triplets. ``cfg`` is a PlannerConfig; only
    its top_k and concept_ratio are read (adapt_weights applies the
    thresholds).

    Tail nodes are ranked by best incident adapted weight (ties by node
    key) and the top min(top_k, concept_ratio * |task tokens|) survive with
    all their triplets. Output order is adapted weight descending, ties
    lexicographic on (head, relation, tail).
    """
    best = {}
    for t in triplets:
        score = best.get(t.tail)
        if score is None or t.adapted_weight > score:
            best[t.tail] = t.adapted_weight
    ranked = sorted(best, key=lambda node: (-best[node], node))

    cap = min(cfg.top_k, cfg.concept_ratio * max(1, len(tokenize(task_text))))
    keep_nodes = set(ranked[:cap])
    return tuple(sorted((t for t in triplets if t.tail in keep_nodes), key=adapted_sort_key))
