"""Task-directed re-weighting and selection of subgraph triplets.

Adaption takes the graph and the ranks ``kg.sample_subgraph`` returns and
turns the sampled triplets that pass both thresholds into
``AdaptedTriplet``s, the only place they are made: each adapted weight is
the original weight plus the cosine between the tail node's text and the
task text. It gathers weights and tails from the graph's rank-order
columns ``weights`` and ``tail_ids``, reads each distinct tail's row by
node id from the provider's vector store (``embeddings.node_rows``, which
embeds a node the first time it is a tail), scores every distinct tail
with one gather (``embeddings.row_dots``) and takes the exact cosine
(``embeddings.row_cosines``) only for the tails that score cannot rule
out, so its output is bit-equal to scoring each tail exactly. It builds
triplets, with one ``graph.triplets`` gather, only for the ranks it keeps.
Selection then ranks tail nodes by their best incident adapted weight and
keeps the top min(k, concept_ratio * task token count) nodes; it takes and
returns a plain tuple of adapted triplets.
"""

from __future__ import annotations

import numpy as np

from . import embeddings
from .entities import tokenize
from .kg import adapted_sort_key, surface


def adapt_weights(graph, ranks, task_text, provider, cfg):
    """Return the triplets of ``ranks`` in ``graph`` that pass both
    thresholds as AdaptedTriplets with adapted_weight = weight +
    cosine(tail text, task text), in the order of ``ranks``. ``cfg`` is a
    PlannerConfig; only its edge_threshold and cos_keep_threshold are read.

    A triplet is kept when its adapted weight is at least edge_threshold and
    its task-relevance cosine, recovered as adapted_weight - weight, is at
    least cos_keep_threshold. The weights and tail ids are gathered from the
    graph's rank-order columns ``graph.weights`` and ``graph.tail_ids``. The
    distinct tails' rows, in order of first appearance, are read from the
    vector store with ``node_rows``, which fills those not held yet with one
    ``embed_rows``.
    One gather scores them all, ``row_dots`` with the task vector. That sum
    lies far within SHORTLIST_MARGIN of the exact ``cosine``, by
    ``best_rows``' premise, so score + margin bounds it from above, and both
    gates, rounding included, are monotone in the cosine: a triplet that
    fails them at that ceiling fails them exactly. Only the tails of the
    triplets left, a few in a real plan, are scored exactly: ``row_cosines``
    gives each distinct one's ``cosine`` bit for bit. The gates are
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
    state, rows = embeddings.node_rows(provider, graph, nodes, lambda i: surface(graph.node_keys[i]))
    score = embeddings.row_dots(state, rows, task_vec)
    weight = graph.weights[ranks]
    ceiling = weight + (np.clip(score, -1.0, 1.0) + embeddings.SHORTLIST_MARGIN)[tail_row]
    shortlist = np.flatnonzero((ceiling >= cfg.edge_threshold) & (ceiling - weight >= cfg.cos_keep_threshold))
    shortlist_rows = tail_row[shortlist]
    # the exact pass: one cosine for each distinct shortlisted tail
    shortlisted = np.zeros(len(nodes), bool)
    shortlisted[shortlist_rows] = True
    exact_rows = np.flatnonzero(shortlisted)
    exact = np.empty(len(nodes))
    exact[exact_rows] = embeddings.row_cosines(state, rows[exact_rows], task_vec)
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
