"""Task-directed re-weighting and selection of subgraph triplets.

Adaption turns the sampled triplets that pass both thresholds into
``AdaptedTriplet``s, the only place they are made: each adapted weight is
the original weight plus the cosine between the tail node's text and the
task text. Selection then ranks tail nodes by their best incident adapted
weight and keeps the top min(k, concept_ratio * task token count) nodes.
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

    Each distinct tail is embedded and scored once. A triplet is kept when
    its adapted weight is at least edge_threshold and its task-relevance
    cosine, recovered as adapted_weight - weight, is at least
    cos_keep_threshold; only the kept triplets are built.
    """
    task_vec = embeddings.embed(provider, task_text)
    tails = [t.tail for t in triplets]
    tail_cos = {
        tail: embeddings.cosine(embeddings.embed(provider, surface(tail)), task_vec)
        for tail in dict.fromkeys(tails)
    }
    n = len(tails)
    weight = np.fromiter([t.weight for t in triplets], np.float64, n)
    adapted = weight + np.fromiter(map(tail_cos.__getitem__, tails), np.float64, n)
    kept = (adapted >= cfg.edge_threshold) & (adapted - weight >= cfg.cos_keep_threshold)
    return tuple(
        AdaptedTriplet(t.head, t.relation, t.tail, t.weight, t.weight + tail_cos[t.tail])
        for t in map(triplets.__getitem__, np.flatnonzero(kept).tolist())
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
