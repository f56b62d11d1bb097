"""Task-directed re-weighting and selection of subgraph triplets.

Adaption turns the sampled triplets that pass both thresholds into
``AdaptedTriplet``s, the only place they are made: each adapted weight is
the original weight plus the cosine between the tail node's text and the
task text. It scores every distinct tail with one matrix product and takes
the exact cosine only for the tails that product cannot rule out, so its
output is bit-equal to scoring each tail exactly. Selection then ranks
tail nodes by their best incident adapted weight and keeps the top
min(k, concept_ratio * task token count) nodes.
Both take and return plain tuples of triplets.
"""

from __future__ import annotations

import numpy as np

from . import embeddings
from .entities import tokenize
from .kg import AdaptedTriplet, adapted_sort_key, surface


def adapt_weights(triplets, task_text, provider, cfg):
    """Return the triplets that pass both thresholds as AdaptedTriplets with
    adapted_weight = weight + cosine(tail text, task text), in the order
    given. ``cfg`` is a PlannerConfig; only its edge_threshold and
    cos_keep_threshold are read.

    A triplet is kept when its adapted weight is at least edge_threshold and
    its task-relevance cosine, recovered as adapted_weight - weight, is at
    least cos_keep_threshold. The distinct tails are embedded with one
    ``embed_many`` and scored with one matrix-vector product. By
    ``best_row``'s premise that score lies far within SHORTLIST_MARGIN of
    the exact ``cosine``, so score + margin bounds it from above, and both
    gates, rounding included, are monotone in the cosine: a triplet that
    fails them at that ceiling fails them exactly. Only the tails of the
    triplets left, a few in a real plan, are scored with ``cosine``, and the
    gates are applied again to those exact values, so every kept triplet
    and adapted weight is bit-equal to a scan that scores every tail.
    """
    task_vec = embeddings.embed(provider, task_text)
    tails = [t.tail for t in triplets]
    row_of = {tail: i for i, tail in enumerate(dict.fromkeys(tails))}
    rows = embeddings.embed_many(provider, [surface(tail) for tail in row_of])
    n = len(tails)
    tail_row = np.fromiter(map(row_of.__getitem__, tails), np.intp, n)
    weight = np.fromiter([t.weight for t in triplets], np.float64, n)
    ceiling = weight + (np.clip(rows @ task_vec, -1.0, 1.0) + embeddings.SHORTLIST_MARGIN)[tail_row]
    shortlist = np.flatnonzero((ceiling >= cfg.edge_threshold) & (ceiling - weight >= cfg.cos_keep_threshold))
    shortlist_rows = tail_row[shortlist].tolist()
    exact = {i: embeddings.cosine(rows[i], task_vec) for i in dict.fromkeys(shortlist_rows)}
    weight = weight[shortlist]
    adapted = weight + np.fromiter(map(exact.__getitem__, shortlist_rows), np.float64, len(shortlist_rows))
    kept = shortlist[(adapted >= cfg.edge_threshold) & (adapted - weight >= cfg.cos_keep_threshold)]
    return tuple(
        AdaptedTriplet(t.head, t.relation, t.tail, t.weight, t.weight + exact[row_of[t.tail]])
        for t in map(triplets.__getitem__, kept.tolist())
    )


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
