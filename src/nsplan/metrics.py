"""Automatic plan-quality metrics.

Sentence-BLEU, ROUGE-1 F1, exact Word Mover's Distance, an embedding-match
F1 in the BERTScore style, and Pearson correlation for comparing metric
columns against human scores. Plan-level inputs are step lists joined with
". " into one text.

Word Mover's Distance is a transportation problem between two bags of
words, solved to optimality here by the transportation simplex: a
least-cost starting tree, duals on the tree, and cycle pivots on the most
negative reduced cost, turning to Bland's rule after a run of degenerate
pivots. The marginals are integer token counts scaled to a common total, so
every flow is an exact integer and the plan depends only on the input.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embeddings import best_cosines, embed
from .entities import tokenize

METRIC_NAMES = ("s_bleu", "rouge1_f1", "wmd_distance", "wmd_similarity", "embed_match_f1")


class UndefinedCorrelationError(ValueError):
    pass


def plan_text(steps):
    """Join plan steps into one evaluable text."""
    return ". ".join(steps)


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu(pred, ref):
    """BLEU up to 4-grams with brevity penalty. Zero clipped counts are
    smoothed to 1e-9 so short near-misses stay comparable; the order is
    capped at the prediction length so one-word predictions do not zero out
    on missing 4-grams."""
    pred_tokens = tokenize(pred)
    ref_tokens = tokenize(ref)
    if not pred_tokens:
        return 0.0
    max_order = min(4, len(pred_tokens))
    log_sum = 0.0
    for n in range(1, max_order + 1):
        pred_counts = _ngram_counts(pred_tokens, n)
        ref_counts = _ngram_counts(ref_tokens, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in pred_counts.items())
        total = max(len(pred_tokens) - n + 1, 1)
        log_sum += math.log(max(clipped, 1e-9) / total)
    geo_mean = math.exp(log_sum / max_order)
    if len(pred_tokens) >= len(ref_tokens) or not ref_tokens:
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(ref_tokens) / len(pred_tokens))
    return min(1.0, bp * geo_mean)


def rouge1_f1(pred, ref):
    pred_counts = Counter(tokenize(pred))
    ref_counts = Counter(tokenize(ref))
    overlap = sum(min(c, ref_counts[t]) for t, c in pred_counts.items())
    p_total = sum(pred_counts.values())
    r_total = sum(ref_counts.values())
    precision = overlap / p_total if p_total else 0.0
    recall = overlap / r_total if r_total else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class TransportPlan:
    weights_pred: np.ndarray
    weights_ref: np.ndarray
    cost: np.ndarray
    plan: np.ndarray
    distance: float


def _nbow(tokens):
    """Sorted vocabulary and the integer count of each word."""
    counts = Counter(tokens)
    vocab = sorted(counts)
    return vocab, [counts[t] for t in vocab]


# A cell enters the basis only when its reduced cost is below -REDUCED_COST_TOL.
# Costs are distances between unit vectors, in [0, 2], and a dual is a signed
# sum of costs along one tree path, each step rounding by at most 2.2e-16 of
# its magnitude. Duals stayed within 2 in magnitude on 100x100 problems, so a
# reduced cost is off by at most about (m + n) * 1e-15: under 1e-13 for the
# benchmark's largest problem, 48x45. 1e-10 stays well above that noise, so a
# cell whose exact reduced cost is zero (tied or duplicate cost rows) never
# enters; and as the plan's total mass is one, the distance accepted is
# within 1e-10 of the optimum.
REDUCED_COST_TOL = 1e-10
# Degenerate pivots (step length zero) in a row before the entering rule turns
# from the most negative reduced cost to Bland's lowest index, which cannot cycle.
BLAND_AFTER = 8


def _least_cost_start(supply, demand, cost):
    """A basic feasible flow by the least-cost rule: cells in stable cost
    order, each allocation closing exactly one line. When a row and a column
    empty together the row closes, unless it is the last open row, so the
    m + n - 1 allocated cells (zero flows included) span a tree."""
    m, n = cost.shape
    supply, demand = list(supply), list(demand)
    row_open, col_open = [True] * m, [True] * n
    open_rows = m
    flow = np.zeros((m, n))
    basis = []
    order = np.argsort(cost, axis=None, kind="stable")
    for cell, i, j in zip(order.tolist(), (order // n).tolist(), (order % n).tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        q = min(supply[i], demand[j])
        supply[i] -= q
        demand[j] -= q
        flow[i, j] = q
        basis.append(cell)
        if supply[i] == 0 and (demand[j] or open_rows > 1):
            row_open[i] = False
            open_rows -= 1
        else:
            col_open[j] = False
        if len(basis) == m + n - 1:
            return flow, basis


def _tree(basis, cost):
    """Duals ``u``, ``v`` with ``u[i] + v[j] == cost[i, j]`` on every basic
    cell, and each node's parent edge in the basis tree rooted at row 0.
    Nodes are rows ``0..m-1`` and columns ``m..m+n-1``; the parent edge is
    ``(parent node, cell)``. A tree has one path to each node, so the duals
    do not depend on the order the basis is listed in."""
    m, n = cost.shape
    adjacent = [[] for _ in range(m + n)]
    for cell in basis:
        i, j = divmod(cell, n)
        adjacent[i].append((m + j, cell))
        adjacent[m + j].append((i, cell))
    dual = [0.0] * (m + n)
    parent = [None] * (m + n)
    parent[0] = (-1, -1)
    stack = [0]
    flat = cost.ravel()
    while stack:
        node = stack.pop()
        for other, cell in adjacent[node]:
            if parent[other] is None:
                parent[other] = (node, cell)
                dual[other] = flat[cell] - dual[node]
                stack.append(other)
    return np.array(dual[:m]), np.array(dual[m:]), parent


def _cycle(parent, row, column):
    """The basic cells on the tree path from ``row`` to ``column`` node, in
    path order; with the entering cell they close the pivot cycle."""
    up_row, up_col = [row], [column]
    seen = {row}
    node = row
    while parent[node][0] != -1:
        node = parent[node][0]
        up_row.append(node)
        seen.add(node)
    node = column
    while node not in seen:
        node = parent[node][0]
        up_col.append(node)
    meet = up_row.index(node)
    path = [parent[x][1] for x in up_row[:meet]]
    path += [parent[x][1] for x in reversed(up_col[:-1])]
    return path


def _entering(reduced, bland):
    """The cell to enter, or None at optimality: the most negative reduced
    cost (lowest index among ties), or under Bland's rule the lowest-index
    cell with a negative one."""
    if bland:
        candidates = np.flatnonzero(reduced < -REDUCED_COST_TOL)
        return int(candidates[0]) if candidates.size else None
    cell = int(np.argmin(reduced))
    return cell if reduced.flat[cell] < -REDUCED_COST_TOL else None


def _transport_simplex(supply, demand, cost):
    """Minimum-cost flow for integer ``supply`` and ``demand`` of equal total,
    by the transportation simplex from the least-cost start. Every flow stays
    an integer, exact in float64, so the step length and its ties are exact;
    the leaving cell is the lowest-index one among the tied minimum."""
    m, n = cost.shape
    flow, basis = _least_cost_start(supply, demand, cost)
    degenerate = 0
    while True:
        u, v, parent = _tree(basis, cost)
        enter = _entering(cost - u[:, None] - v[None, :], degenerate >= BLAND_AFTER)
        if enter is None:
            return flow
        i, j = divmod(enter, n)
        path = _cycle(parent, i, m + j)
        giving = path[0::2]  # the cells that lose flow; path[1::2] gain it
        theta = min(flow.flat[c] for c in giving)
        leave = min(c for c in giving if flow.flat[c] == theta)
        flow.flat[enter] = theta
        flow.flat[giving] -= theta
        flow.flat[path[1::2]] += theta
        basis.remove(leave)
        basis.append(enter)
        degenerate = degenerate + 1 if theta == 0 else 0


def wmd_transport(pred, ref, provider):
    """Solve the transportation problem between the two normalized
    bag-of-words distributions with Euclidean ground cost, by the
    transportation simplex. The marginals are kept as integers, each word's
    count times the other side's length, so both total ``len(pred) *
    len(ref)`` tokens and every flow is exact; the plan is that flow divided
    by the total. Returns the full plan so feasibility can be checked
    downstream."""
    pred_tokens = tokenize(pred)
    ref_tokens = tokenize(ref)
    if not pred_tokens or not ref_tokens:
        raise ValueError("word mover's distance needs nonempty texts on both sides")
    vocab_p, counts_p = _nbow(pred_tokens)
    vocab_r, counts_r = _nbow(ref_tokens)
    n_p, n_r = len(pred_tokens), len(ref_tokens)
    vec_p = np.stack([embed(provider, t) for t in vocab_p])
    vec_r = np.stack([embed(provider, t) for t in vocab_r])
    diff = vec_p[:, None, :] - vec_r[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))

    flow = _transport_simplex([c * n_r for c in counts_p], [c * n_p for c in counts_r], cost)
    plan = flow / (n_p * n_r)
    distance = float((plan * cost).sum())
    return TransportPlan(
        weights_pred=np.array(counts_p, dtype=np.float64) / n_p,
        weights_ref=np.array(counts_r, dtype=np.float64) / n_r,
        cost=cost,
        plan=plan,
        distance=distance,
    )


def wmd(pred, ref, provider):
    """Exact Word Mover's Distance and the derived similarity 1/(1+d).

    Arguments are canonicalized by token-distribution order before the
    solve so wmd(a, b) and wmd(b, a) are bit-identical; identical
    distributions short-circuit to distance zero.
    """
    pred_tokens = tokenize(pred)
    ref_tokens = tokenize(ref)
    if not pred_tokens or not ref_tokens:
        raise ValueError("word mover's distance needs nonempty texts on both sides")
    vocab_p, counts_p = _nbow(pred_tokens)
    vocab_r, counts_r = _nbow(ref_tokens)
    key_p = (tuple(vocab_p), tuple(c / len(pred_tokens) for c in counts_p))
    key_r = (tuple(vocab_r), tuple(c / len(ref_tokens) for c in counts_r))
    if key_p == key_r:
        return 0.0, 1.0
    first, second = (pred, ref) if key_p <= key_r else (ref, pred)
    distance = wmd_transport(first, second, provider).distance
    distance = max(distance, 0.0)
    return distance, 1.0 / (1.0 + distance)


def embed_match_f1(pred, ref, provider):
    """Greedy-matching embedding F1. Precision averages, over prediction
    tokens, the best cosine against any reference token; recall mirrors it;
    both are mapped through (x+1)/2 before the harmonic mean so the result
    lands in [0, 1]. Each distinct token is embedded once, in order of first
    occurrence, and ``best_cosines`` scores each side against the other,
    bit-equal to a double loop over ``cosine`` summed in token order."""
    pred_tokens = tokenize(pred)
    ref_tokens = tokenize(ref)
    if not pred_tokens or not ref_tokens:
        raise ValueError("embedding-match F1 needs nonempty texts on both sides")
    vectors = {t: embed(provider, t) for t in dict.fromkeys(pred_tokens + ref_tokens)}
    vocab_p, vocab_r = list(dict.fromkeys(pred_tokens)), list(dict.fromkeys(ref_tokens))
    vec_p = np.stack([vectors[t] for t in vocab_p])
    vec_r = np.stack([vectors[t] for t in vocab_r])
    best_p = dict(zip(vocab_p, best_cosines(vec_p, vec_r)))
    best_r = dict(zip(vocab_r, best_cosines(vec_r, vec_p)))
    precision = sum(best_p[t] for t in pred_tokens) / len(pred_tokens)
    recall = sum(best_r[t] for t in ref_tokens) / len(ref_tokens)
    precision = (precision + 1.0) / 2.0
    recall = (recall + 1.0) / 2.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def pearson(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("pearson expects two equal-length 1-d sequences")
    if len(xs) < 2:
        raise ValueError("pearson needs at least two points")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation undefined: an input has zero variance")
    r = float((dx * dy).sum()) / (sx * sy)
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class MetricReport:
    """Scores and means of the ``count`` scored samples; ``failed`` holds the others' errors."""

    per_sample: tuple  # of dicts: {"id": ..., metric: value, ...}
    means: dict
    count: int
    failed: tuple = ()  # of dicts: {"id": ..., "error": ...}

    def to_json(self):
        return {
            "count": self.count,
            "failed": [dict(row) for row in self.failed],
            "means": dict(self.means),
            "per_sample": [dict(row) for row in self.per_sample],
        }

    def to_table(self):
        """Aligned plain-text table, one row per sample plus a mean row."""
        headers = ("id",) + METRIC_NAMES
        rows = []
        for row in self.per_sample:
            rows.append([str(row["id"])] + [f"{row[m]:.4f}" for m in METRIC_NAMES])
        if self.count:
            rows.append(["mean"] + [f"{self.means[m]:.4f}" for m in METRIC_NAMES])
        widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
        lines.extend(f"failed {row['id']}: {row['error']}" for row in self.failed)
        return "\n".join(lines)


def evaluate_pair(pred, ref, provider):
    distance, similarity = wmd(pred, ref, provider)
    return {
        "s_bleu": sentence_bleu(pred, ref),
        "rouge1_f1": rouge1_f1(pred, ref),
        "wmd_distance": distance,
        "wmd_similarity": similarity,
        "embed_match_f1": embed_match_f1(pred, ref, provider),
    }


def evaluate_corpus(samples, provider, failed=()):
    """samples: iterable of (sample_id, predicted text, reference text). A
    pair that cannot be scored (an empty side) is recorded in ``failed``,
    after the (sample_id, error) pairs the caller could not build; means
    cover the scored pairs and are empty when none was scored."""
    per_sample, errors = [], list(failed)
    for sample_id, pred, ref in samples:
        try:
            per_sample.append({"id": sample_id, **evaluate_pair(pred, ref, provider)})
        except ValueError as err:
            errors.append((sample_id, err))
    if not per_sample and not errors:
        raise ValueError("no samples to evaluate")
    n = len(per_sample)
    means = {m: sum(r[m] for r in per_sample) / n for m in METRIC_NAMES} if n else {}
    rows = tuple({"id": sample_id, "error": f"{type(err).__name__}: {err}"} for sample_id, err in errors)
    return MetricReport(tuple(per_sample), means, n, rows)
