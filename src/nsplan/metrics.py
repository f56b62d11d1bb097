"""Automatic plan-quality metrics.

Sentence-BLEU, ROUGE-1 F1, exact Word Mover's Distance, an embedding-match
F1 in the BERTScore style, and Pearson correlation for comparing metric
columns against human scores. Plan-level inputs are step lists joined with
". " into one text.

Word Mover's Distance is a transportation problem between two bags of
words, solved to optimality here by the transportation simplex: a
least-cost starting tree taken by argmin, duals on the tree, and cycle
pivots on the most negative reduced cost, turning to Bland's rule after a
run of degenerate pivots. The marginals are integer token counts scaled to
a common total, so every flow is an exact integer and the plan depends only
on the input. Both embedding scorers score each unordered token pair once,
in the provider's ``token_table``.

Every scorer reads a text through two caches of the last four texts,
``_toks`` (its tokens) and ``_bag`` (its bag of words), so a pair
tokenizes each text once and builds each bag once. They hold only
tuples, so no caller can alter a shared entry, and four texts, so they
reuse a text only within a pair and a one-pass run gains as much as a
repeated one.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embeddings import token_table
from .entities import tokenize

METRIC_NAMES = ("s_bleu", "rouge1_f1", "wmd_distance", "wmd_similarity", "embed_match_f1")


def plan_text(steps):
    """Join plan steps into one evaluable text."""
    return ". ".join(steps)


@functools.lru_cache(maxsize=4)
def _toks(text):
    """The tokens of ``text``, as a tuple."""
    return tuple(tokenize(text))


@functools.lru_cache(maxsize=4)
def _bag(text):
    """The sorted vocabulary of ``text`` and the integer count of each word, as two tuples."""
    counts = Counter(_toks(text))
    vocab = tuple(sorted(counts))
    return vocab, tuple(map(counts.__getitem__, vocab))


def _ngram_counts(tokens, n):
    return Counter(zip(*[tokens[k:] for k in range(n)]))


def sentence_bleu(pred, ref):
    """BLEU up to 4-grams with brevity penalty. Zero clipped counts are
    smoothed to 1e-9 so short near-misses stay comparable; the order is
    capped at the prediction length so one-word predictions do not zero out
    on missing 4-grams."""
    pred_tokens, ref_tokens = _toks(pred), _toks(ref)
    if not pred_tokens:
        return 0.0
    max_order = min(4, len(pred_tokens))
    log_sum = 0.0
    for n in range(1, max_order + 1):
        clipped = sum((_ngram_counts(pred_tokens, n) & _ngram_counts(ref_tokens, n)).values())
        total = max(len(pred_tokens) - n + 1, 1)
        log_sum += math.log(max(clipped, 1e-9) / total)
    geo_mean = math.exp(log_sum / max_order)
    bp = 1.0 if len(pred_tokens) >= len(ref_tokens) else math.exp(1.0 - len(ref_tokens) / len(pred_tokens))
    return min(1.0, bp * geo_mean)


def rouge1_f1(pred, ref):
    pred_tokens, ref_tokens = _toks(pred), _toks(ref)
    overlap = sum((Counter(pred_tokens) & Counter(ref_tokens)).values())
    precision = overlap / len(pred_tokens) if pred_tokens else 0.0
    recall = overlap / len(ref_tokens) if ref_tokens else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _tokens(pred, ref, scorer):
    """The tokens of both texts; an empty side is a ValueError naming ``scorer``."""
    pred_tokens, ref_tokens = _toks(pred), _toks(ref)
    if not pred_tokens or not ref_tokens:
        raise ValueError(f"{scorer} needs nonempty texts on both sides")
    return pred_tokens, ref_tokens


@dataclass(frozen=True)
class TransportPlan:
    weights_pred: np.ndarray
    weights_ref: np.ndarray
    cost: np.ndarray
    plan: np.ndarray
    distance: float


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
    """A basic feasible flow by the least-cost rule: m + n - 1 allocations,
    each to the first ``argmin`` over the open lines (closed ones read +inf
    in a copy of ``cost``, which must be finite) and closing exactly one
    line. When a row and a column empty together the row closes, unless it
    is the last open row, so the allocated cells span a tree."""
    m, n = cost.shape
    supply, demand = list(supply), list(demand)
    open_cost = cost.copy()
    open_rows = m
    flow = np.zeros((m, n))
    basis = []
    for _ in range(m + n - 1):
        cell = int(open_cost.argmin())
        i, j = divmod(cell, n)
        q = min(supply[i], demand[j])
        supply[i] -= q
        demand[j] -= q
        flow[i, j] = q
        basis.append(cell)
        if supply[i] == 0 and (demand[j] or open_rows > 1):
            open_cost[i] = np.inf
            open_rows -= 1
        else:
            open_cost[:, j] = np.inf
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
    by the total. The ground cost is gathered from the provider's
    ``token_table`` into a fresh array. Returns the full plan so
    feasibility can be checked downstream."""
    pred_tokens, ref_tokens = _tokens(pred, ref, "word mover's distance")
    (vocab_p, counts_p), (vocab_r, counts_r) = _bag(pred), _bag(ref)
    n_p, n_r = len(pred_tokens), len(ref_tokens)
    table = token_table(provider, vocab_p + vocab_r)
    cost = table.distances([table.index[t] for t in vocab_p], [table.index[t] for t in vocab_r])

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
    pred_tokens, ref_tokens = _tokens(pred, ref, "word mover's distance")
    (vocab_p, counts_p), (vocab_r, counts_r) = _bag(pred), _bag(ref)
    key_p = (vocab_p, tuple(c / len(pred_tokens) for c in counts_p))
    key_r = (vocab_r, tuple(c / len(ref_tokens) for c in counts_r))
    if key_p == key_r:
        return 0.0, 1.0
    first, second = (pred, ref) if key_p <= key_r else (ref, pred)
    distance = wmd_transport(first, second, provider).distance  # >= 0: plan and cost are nonnegative
    return distance, 1.0 / (1.0 + distance)


def embed_match_f1(pred, ref, provider):
    """Greedy-matching embedding F1. Precision averages, over prediction
    tokens, the best cosine against any reference token; recall mirrors it;
    both are mapped through (x+1)/2 before the harmonic mean so the result
    lands in [0, 1]. Each token pair's ``cosine`` is read from the
    provider's ``token_table``: the row maxima of the gathered block give
    each distinct prediction token's best and its column maxima each
    reference token's, summed in token order, bit-equal to a double loop
    over ``cosine``."""
    pred_tokens, ref_tokens = _tokens(pred, ref, "embedding-match F1")
    vocab_p, vocab_r = list(dict.fromkeys(pred_tokens)), list(dict.fromkeys(ref_tokens))
    table = token_table(provider, vocab_p + vocab_r)
    block = table.cosines([table.index[t] for t in vocab_p], [table.index[t] for t in vocab_r])
    best_p = dict(zip(vocab_p, block.max(axis=1).tolist()))
    best_r = dict(zip(vocab_r, block.max(axis=0).tolist()))
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
        raise ValueError("correlation undefined: an input has zero variance")
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
        rows = [[str(row["id"])] + [f"{row[m]:.4f}" for m in METRIC_NAMES] for row in self.per_sample]
        if self.count:
            rows.append(["mean"] + [f"{self.means[m]:.4f}" for m in METRIC_NAMES])
        widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]
        table = [headers, ["-" * w for w in widths], *rows]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in table]
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
