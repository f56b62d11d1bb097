"""Task-directed re-weighting and selection of subgraph triplets.

Each triplet's adapted weight is its original weight plus the cosine
between the tail node's text and the task text. Selection then thresholds
on adapted weight, ranks tail nodes by their best incident adapted weight,
and keeps the top min(k, concept_ratio * task token count) nodes.
"""

from __future__ import annotations

from dataclasses import replace

from . import embeddings
from .entities import tokenize
from .kg import Subgraph, adapted_sort_key, surface


def adapt_weights(subgraph, task_text, provider):
    """Return a copy of the subgraph with adapted_weight = weight +
    cosine(tail text, task text). Original weights and order are untouched."""
    task_vec = embeddings.embed(provider, task_text)
    tail_cos = {}
    adapted = []
    for t in subgraph.triplets:
        cos = tail_cos.get(t.tail)
        if cos is None:
            cos = embeddings.cosine(embeddings.embed(provider, surface(t.tail)), task_vec)
            tail_cos[t.tail] = cos
        adapted.append(replace(t, adapted_weight=t.weight + cos))
    return Subgraph(tuple(adapted), anchors=subgraph.anchors)


def select(subgraph, cfg, task_text):
    """Threshold, rank, and cap the adapted subgraph. ``cfg`` is a
    PlannerConfig; only its top_k, edge_threshold, concept_ratio and
    cos_keep_threshold are read.

    Triplets below edge_threshold go first. Tail nodes whose task-relevance
    cosine (recovered as adapted_weight - weight) is under
    cos_keep_threshold are not considered. Remaining tail nodes are ranked
    by best incident adapted weight (ties by node key) and the top
    min(top_k, concept_ratio * |task tokens|) survive. Output order is
    adapted weight descending, ties lexicographic on (head, relation, tail).
    """
    kept = [t for t in subgraph.triplets if t.adapted_weight >= cfg.edge_threshold]
    kept = [t for t in kept if t.cosine >= cfg.cos_keep_threshold]

    best = {}
    for t in kept:
        score = best.get(t.tail)
        if score is None or t.adapted_weight > score:
            best[t.tail] = t.adapted_weight
    ranked = sorted(best, key=lambda node: (-best[node], node))

    cap = min(cfg.top_k, cfg.concept_ratio * max(1, len(tokenize(task_text))))
    keep_nodes = set(ranked[:cap])
    chosen = sorted((t for t in kept if t.tail in keep_nodes), key=adapted_sort_key)
    return Subgraph(tuple(chosen), anchors=subgraph.anchors)
