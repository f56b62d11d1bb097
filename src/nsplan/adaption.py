"""Task-directed re-weighting and selection of subgraph triplets.

Adaption takes the graph and the ranks ``kg.sample_subgraph`` returns and
turns the sampled triplets that pass both thresholds into
``AdaptedTriplet``s, the only place they are made: each adapted weight is
the original weight plus the cosine between the tail node's text and the
task text. It gathers weights and tails from the graph's rank-order
columns ``weights`` and ``tail_ids``, reads each distinct tail's row by
node id from the provider's vector store, scores every distinct tail with one
gather and takes the exact cosine only for the tails that score cannot
rule out, so its output is bit-equal to scoring each tail exactly. The
exact pass rebuilds those tails' rows into one block with
``embeddings._rebuilt`` and takes one ``np.dot`` per row:
``embeddings.cosine_of_dot`` over that dot, the node's stored norm and
the task vector's norm, taken once per call, is ``cosine`` of the two
vectors bit for bit. It builds triplets, with
one ``graph.triplets`` gather, only for the ranks it keeps.
Selection then ranks tail nodes by their best incident adapted weight and
keeps the top min(k, concept_ratio * task token count) nodes; it takes and
returns a plain tuple of adapted triplets.

The tails' vectors are the provider's ``embeddings.VectorStore`` rows,
the only copy of them: each graph keeps only a table from node id to row
(4 B a node, -1 until filled), tagged with the store and its clear count.
A node is filled the first time adaption names it as a tail, through
``embeddings.embed_rows``, so its row is ``embed`` of its text bit for
bit, with the ``row_norms`` norm the store took when it stored the row;
a filled node asks the store nothing. The table lives as long as its
graph, and is replaced by an empty one when another provider asks or the
store has cleared since it was filled.

Threads of a ``--jobs`` run share one graph and provider. A table is
written under the store's lock, after the state that holds the rows it
names is published, and a reader reads the table before the store's
state, so every row it reads is in that state. Held rows never change,
so reading needs no lock.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import embeddings
from .entities import tokenize
from .kg import adapted_sort_key, surface

_TABLES = weakref.WeakKeyDictionary()  # graph -> (store, clears, rows): node id -> row in store, -1 until filled


def _rows(graph, provider, nodes):
    """(state, rows): a state of ``provider``'s vector store and the row
    there of each of ``nodes``, distinct. The nodes the graph's table lacks,
    or all of them when it is stale, are filled with one
    ``embeddings.embed_rows`` in the order of ``nodes``; when the store
    clears during that call, every node is asked again."""
    store = embeddings.vector_store(provider)
    table = _TABLES.get(graph)
    rows = table[2][nodes] if table is not None and table[0] is store else None
    state = store.state
    if rows is None or table[1] != state[0]:
        rows = np.full(len(nodes), -1, np.int32)
    missing = rows < 0
    if not missing.any():
        return state, rows
    keys, clears = graph.node_keys, state[0]
    state, got, _ = embeddings.embed_rows(provider, [surface(keys[i]) for i in nodes[missing].tolist()])
    if state[0] == clears or missing.all():
        rows[missing] = got
    else:  # the store cleared, and the rows read from the table went with it
        state, rows, _ = embeddings.embed_rows(provider, [surface(keys[i]) for i in nodes.tolist()])
    with store.lock:
        table = _TABLES.get(graph)
        if store.state[0] == state[0]:
            if table is None or table[0] is not store or table[1] != state[0]:
                table = (store, state[0], np.full(graph.node_count, -1, np.int32))
            table[2][nodes] = rows
            _TABLES[graph] = table
    return state, rows


def adapt_weights(graph, ranks, task_text, provider, cfg):
    """Return the triplets of ``ranks`` in ``graph`` that pass both
    thresholds as AdaptedTriplets with adapted_weight = weight +
    cosine(tail text, task text), in the order of ``ranks``. ``cfg`` is a
    PlannerConfig; only its edge_threshold and cos_keep_threshold are read.

    A triplet is kept when its adapted weight is at least edge_threshold and
    its task-relevance cosine, recovered as adapted_weight - weight, is at
    least cos_keep_threshold. The weights and tail ids are gathered from the
    graph's rank-order columns ``graph.weights`` and ``graph.tail_ids``. The
    distinct tails, in order of first appearance, are read from the vector
    store; those the graph's table lacks are filled first, with one
    ``embed_rows``.
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
    state, rows = _rows(graph, provider, nodes)
    _, indptr, norms, values, dims = state
    start = indptr[rows]
    length = indptr[rows + 1] - start
    norm = norms[rows]
    pos = embeddings.positions(start, length)
    score = np.bincount(np.repeat(np.arange(len(nodes)), length), values[pos] * task_vec[dims[pos]], len(nodes))
    weight = graph.weights[ranks]
    ceiling = weight + (np.clip(score, -1.0, 1.0) + embeddings.SHORTLIST_MARGIN)[tail_row]
    shortlist = np.flatnonzero((ceiling >= cfg.edge_threshold) & (ceiling - weight >= cfg.cos_keep_threshold))
    shortlist_rows = tail_row[shortlist]
    # the exact pass: the distinct shortlisted rows rebuilt into one block, one dot each
    shortlisted = np.zeros(len(nodes), bool)
    shortlisted[shortlist_rows] = True
    exact_rows = np.flatnonzero(shortlisted)
    block = embeddings._rebuilt(state, rows[exact_rows], len(task_vec))
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
