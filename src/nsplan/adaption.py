"""Task-directed re-weighting and selection of subgraph triplets.

Adaption turns the sampled triplets into ``AdaptedTriplet``s, the only
place they are made: each adapted weight is the original weight plus the
cosine between the tail node's text and the task text. Selection then
thresholds on adapted weight, ranks tail nodes by their best incident
adapted weight, and keeps the top min(k, concept_ratio * task token count)
nodes. Both take and return plain tuples of triplets.
"""

from __future__ import annotations

from . import embeddings
from .entities import tokenize
from .kg import AdaptedTriplet, adapted_sort_key, surface


def adapt_weights(triplets, task_text, provider):
    """Return the triplets as AdaptedTriplets with adapted_weight = weight +
    cosine(tail text, task text), in the order given."""
    task_vec = embeddings.embed(provider, task_text)
    tail_cos = {}
    adapted = []
    for t in triplets:
        cos = tail_cos.get(t.tail)
        if cos is None:
            cos = embeddings.cosine(embeddings.embed(provider, surface(t.tail)), task_vec)
            tail_cos[t.tail] = cos
        adapted.append(AdaptedTriplet(t.head, t.relation, t.tail, t.weight, t.weight + cos))
    return tuple(adapted)


def select(triplets, cfg, task_text):
    """Threshold, rank, and cap the adapted triplets. ``cfg`` is a
    PlannerConfig; only its top_k, edge_threshold, concept_ratio and
    cos_keep_threshold are read.

    Triplets below edge_threshold go first. Tail nodes whose task-relevance
    cosine (recovered as adapted_weight - weight) is under
    cos_keep_threshold are not considered. Remaining tail nodes are ranked
    by best incident adapted weight (ties by node key) and the top
    min(top_k, concept_ratio * |task tokens|) survive. Output order is
    adapted weight descending, ties lexicographic on (head, relation, tail).
    """
    kept = [t for t in triplets if t.adapted_weight >= cfg.edge_threshold]
    kept = [t for t in kept if t.cosine >= cfg.cos_keep_threshold]

    best = {}
    for t in kept:
        score = best.get(t.tail)
        if score is None or t.adapted_weight > score:
            best[t.tail] = t.adapted_weight
    ranked = sorted(best, key=lambda node: (-best[node], node))

    cap = min(cfg.top_k, cfg.concept_ratio * max(1, len(tokenize(task_text))))
    keep_nodes = set(ranked[:cap])
    return tuple(sorted((t for t in kept if t.tail in keep_nodes), key=adapted_sort_key))
