"""Independent oracles the tests compare library output against.

Everything here is deliberately written the slow, obvious way, and where
possible by a different route than the library (explicit loops instead of
vectorization, polytope vertex enumeration instead of an LP solver), so
agreement is meaningful.
"""

import hashlib
import itertools
import math
from collections import Counter


# ---------------------------------------------------------------- embeddings

def hash_embedding_oracle(text, dim=256, seed=0):
    """Feature-hashed unigram+bigram vector, L2-normalized; plain lists."""
    words = _words(text)
    feats = list(words)
    for a, b in zip(words, words[1:]):
        feats.append(a + " " + b)
    vec = [0.0] * dim
    for feat in feats:
        digest = hashlib.blake2b(f"{seed}|{feat}".encode("utf-8"), digest_size=9).digest()
        index = int.from_bytes(digest[:8], "big") % dim
        sign = 1.0 if digest[8] & 1 else -1.0
        vec[index] += sign
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        return vec
    return [v / norm for v in vec]


def _words(text):
    out, current = [], []
    for ch in text.lower():
        if ch.isalnum() or ch == "'":
            current.append(ch)
        elif current:
            out.append("".join(current).strip("'"))
            current = []
    if current:
        out.append("".join(current).strip("'"))
    return [w for w in out if w]


def cosine_oracle(a, b):
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return max(-1.0, min(1.0, num / (na * nb)))


# ---------------------------------------------------------------- adaption

def adapt_oracle(triplets, task_text, provider, edge_threshold, cos_keep_threshold):
    """Edge-wise adaption as a plain scan: every triplet's tail embedded and
    scored against the task with ``cosine``, kept when weight + cosine is at
    least edge_threshold and the shift recovered from it, adapted - weight,
    is at least cos_keep_threshold. Returns (head, relation, tail, weight,
    adapted weight) tuples in input order."""
    from nsplan.embeddings import cosine, embed

    task_vec = embed(provider, task_text)
    kept = []
    for t in triplets:
        adapted = t.weight + cosine(embed(provider, t.tail.replace("_", " ")), task_vec)
        if adapted >= edge_threshold and adapted - t.weight >= cos_keep_threshold:
            kept.append((t.head, t.relation, t.tail, t.weight, adapted))
    return kept


def select_oracle(triplets, task_tokens, top_k, edge_threshold, cos_keep_threshold, concept_ratio):
    """Full-sort reimplementation of concept selection over adapted
    triplets; returns the kept triplets in output order."""
    surviving = [
        t
        for t in triplets
        if t.adapted_weight >= edge_threshold
        and (t.adapted_weight - t.weight) >= cos_keep_threshold
    ]
    score = {}
    for t in surviving:
        score[t.tail] = max(score.get(t.tail, float("-inf")), t.adapted_weight)
    ranked = sorted(score, key=lambda node: (-score[node], node))
    cap = min(top_k, concept_ratio * max(1, len(task_tokens)))
    kept_nodes = set(ranked[:cap])
    kept = [t for t in surviving if t.tail in kept_nodes]
    kept.sort(key=lambda t: (-t.adapted_weight, t.head, t.relation, t.tail))
    return kept


# ---------------------------------------------------------------- graph sampling

def sample_subgraph_oracle(triplets, anchors, hops, fanout_cap, relations):
    """Layered BFS over the undirected edges whose relation is in
    ``relations``. Each node of layers 0..hops-1 follows its ``fanout_cap``
    heaviest incident edges (ties by head, relation, tail). ``triplets``
    must hold each (head, relation, tail) once. Returns the followed
    triplets, heaviest first with the same ties, and every reached node's
    BFS distance."""
    def rank(t):
        return (-t.weight, t.head, t.relation, t.tail)

    edges = [t for t in triplets if t.relation in relations]
    frontier = sorted(set(anchors))
    dist = {node: 0 for node in frontier}
    followed = {}
    for depth in range(hops):
        next_frontier = []
        for node in frontier:
            incident = sorted((t for t in edges if node in (t.head, t.tail)), key=rank)
            for t in incident[:fanout_cap]:
                followed[(t.head, t.relation, t.tail)] = t
                other = t.tail if t.head == node else t.head
                if other not in dist:
                    dist[other] = depth + 1
                    next_frontier.append(other)
        frontier = next_frontier
    return sorted(followed.values(), key=rank), dist


# ---------------------------------------------------------------- verbalization

def verbalize_oracle(triplets, max_depth):
    """The knowledge lines of adapted ``triplets`` by the traversal contract
    of ``verbalize``'s module docstring, with plain loops and an explicit
    stack. Only the rules are the library's: each relation's (template,
    recursive, phase) entry in ``kg.HOUSEHOLD_RELATIONS``.

    Roots are grouped by phase and ordered by adapted weight (ties by head,
    relation, tail) within a phase. A root is walked depth-first from depth
    0; a recursive triplet's children are the recursive triplets whose head
    is its tail, in adapted order whatever their phase. Each triplet key is
    walked once; its line is kept while its depth is below ``max_depth``
    and its text is new."""
    from nsplan.kg import HOUSEHOLD_RELATIONS as rules

    def by_adapted_weight(ts):
        return sorted(ts, key=lambda t: (-t.adapted_weight, t.head, t.relation, t.tail))

    def text(t):
        template = rules[t.relation][0]
        return template.format(head=t.head.replace("_", " "), tail=t.tail.replace("_", " "))

    roots = []
    for phase in ("Prerequisite", "Body", "Subevent", "LastSubevent"):
        roots += by_adapted_weight([t for t in triplets if rules[t.relation][2] == phase])
    lines = []
    walked = set()
    for root in roots:
        stack = [(root, 0)]
        while stack:
            t, depth = stack.pop()
            key = (t.head, t.relation, t.tail)
            if key in walked:
                continue
            walked.add(key)
            if depth < max_depth and text(t) not in lines:
                lines.append(text(t))
            if rules[t.relation][1]:
                children = by_adapted_weight(
                    [c for c in triplets if rules[c.relation][1] and c.head == t.tail]
                )
                # pushed last-first, so the heaviest child is walked next
                for child in reversed(children):
                    stack.append((child, depth + 1))
    return tuple(lines)


# ---------------------------------------------------------------- translator

def translate_scan_oracle(text, candidates, provider):
    """Exhaustive argmax over candidate steps with lexicographic ties."""
    import numpy as np

    query = np.asarray(provider.vector(text), dtype=np.float64)
    best_text, best_cos = None, None
    for cand in candidates:
        vec = np.asarray(provider.vector(cand), dtype=np.float64)
        if not query.any() or not vec.any():
            cos = 0.0
        else:
            cos = float(np.dot(query, vec))
            cos = max(-1.0, min(1.0, cos))
        if best_cos is None or cos > best_cos or (cos == best_cos and cand < best_text):
            best_text, best_cos = cand, cos
    return best_text, best_cos


# ---------------------------------------------------------------- planning

def plan_oracle(task, triplets, admissible_texts, schedule, config, provider):
    """The ``PlanResult.to_json()`` of one plan, assembled from the stage
    oracles above with plain loops: the follower generator with confidence
    ``schedule`` over a graph of ``triplets`` (household relations only,
    duplicate keys allowed) and the admissible steps ``admissible_texts``.

    Of the copies of a key the heaviest is kept, the first one on a tie.
    The task's entity keys (the library's parser, given the node set) are
    the anchors; sampling reads ``kg.FANOUT_CAP`` at call time. Each
    knowledge line is grounded by the scan oracle and consecutive repeats
    collapse. Each iteration echoes the first grounded line the steps have
    not used, at the schedule's confidence for the step count (clamped to
    its last entry), and accepts the scan oracle's step while confidence
    times the clamped-at-zero cosine is at least theta."""
    from nsplan import kg
    from nsplan.embeddings import embed
    from nsplan.entities import parse_entities, tokenize
    from nsplan.kg import AdaptedTriplet

    heaviest = {}
    for t in triplets:
        if t.key not in heaviest or t.weight > heaviest[t.key].weight:
            heaviest[t.key] = t
    nodes = {t.head for t in heaviest.values()} | {t.tail for t in heaviest.values()}
    anchors = parse_entities(task, graph=nodes).keys()
    sampled, _ = sample_subgraph_oracle(
        list(heaviest.values()), anchors, config.hops, kg.FANOUT_CAP, kg.HOUSEHOLD_RELATIONS
    )
    adapted = [
        AdaptedTriplet(*row)
        for row in adapt_oracle(sampled, task, provider, config.edge_threshold, config.cos_keep_threshold)
    ]
    kept = select_oracle(
        adapted, tokenize(task), config.top_k, config.edge_threshold, config.cos_keep_threshold,
        config.concept_ratio,
    )

    class View:
        def vector(self, text):
            return embed(provider, text)

    grounded = []
    for line in verbalize_oracle(kept, config.hops):
        text, _ = translate_scan_oracle(line, admissible_texts, View())
        if not grounded or grounded[-1] != text:
            grounded.append(text)

    steps, trace = [], []
    termination = "MaxSteps"
    while len(steps) < config.max_steps:
        used = [step["text"] for step in steps]
        unused = [line for line in grounded if line not in used]
        if not unused:
            termination = "GeneratorExhausted"
            break
        confidence = schedule[min(len(steps), len(schedule) - 1)]
        text, cos = translate_scan_oracle(unused[0], admissible_texts, View())
        effective = confidence * max(cos, 0.0)
        trace.append({
            "iteration": len(steps) + 1,
            "generated_text": unused[0],
            "generation_confidence": confidence,
            "translated_text": text,
            "translation_cosine": cos,
            "effective_confidence": effective,
            "accepted": effective >= config.theta,
        })
        if effective < config.theta:
            termination = "BelowThreshold"
            break
        steps.append({"text": text, "confidence": effective})
    return {"task": task, "steps": steps, "termination": termination, "trace": trace}


# ---------------------------------------------------------------- metrics

def bleu_oracle(pred_tokens, ref_tokens):
    """Hand n-gram BLEU with 1e-9 numerator smoothing and brevity penalty."""
    if not pred_tokens:
        return 0.0
    max_n = min(4, len(pred_tokens))
    logs = []
    for n in range(1, max_n + 1):
        pred_grams = [tuple(pred_tokens[i : i + n]) for i in range(len(pred_tokens) - n + 1)]
        ref_grams = [tuple(ref_tokens[i : i + n]) for i in range(len(ref_tokens) - n + 1)]
        ref_counts = Counter(ref_grams)
        matched = 0
        for gram, count in Counter(pred_grams).items():
            matched += min(count, ref_counts.get(gram, 0))
        precision = max(matched, 1e-9) / max(len(pred_grams), 1)
        logs.append(math.log(precision))
    geo = math.exp(sum(logs) / len(logs))
    if len(pred_tokens) >= len(ref_tokens):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(ref_tokens) / len(pred_tokens))
    return min(1.0, bp * geo)


def rouge1_oracle(pred_tokens, ref_tokens):
    pred_counts = Counter(pred_tokens)
    ref_counts = Counter(ref_tokens)
    overlap = 0
    for token, count in pred_counts.items():
        overlap += min(count, ref_counts.get(token, 0))
    p = overlap / len(pred_tokens) if pred_tokens else 0.0
    r = overlap / len(ref_tokens) if ref_tokens else 0.0
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def embed_match_f1_oracle(pred_tokens, ref_tokens, provider):
    """Greedy-matching embedding F1 as a plain double loop: every token
    embedded, every pair scored with ``cosine``, summed in token order."""
    from nsplan.embeddings import cosine, embed

    vec_p = [embed(provider, t) for t in pred_tokens]
    vec_r = [embed(provider, t) for t in ref_tokens]
    precision = sum(max(cosine(p, r) for r in vec_r) for p in vec_p) / len(vec_p)
    recall = sum(max(cosine(r, p) for p in vec_p) for r in vec_r) / len(vec_r)
    precision = (precision + 1.0) / 2.0
    recall = (recall + 1.0) / 2.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def transport_vertex_oracle(supply, demand, cost):
    """Exact minimum transport cost by enumerating basic feasible solutions.

    Vertices of the transportation polytope are supported on spanning trees
    of the complete bipartite graph; every subset of m+n-1 cells is tried,
    solved by repeated leaf elimination, and kept when the allocation is
    nonnegative. Only viable for tiny instances, which is the point.
    """
    m, n = len(supply), len(demand)
    cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for basis in itertools.combinations(cells, m + n - 1):
        alloc = _solve_tree(basis, list(supply), list(demand), m, n)
        if alloc is None:
            continue
        if any(value < -1e-12 for value in alloc.values()):
            continue
        total = sum(alloc[(i, j)] * cost[i][j] for (i, j) in alloc)
        if best is None or total < best:
            best = total
    if best is None:
        raise RuntimeError("no basic feasible solution found")
    return best


def least_cost_start_oracle(supply, demand, cost):
    """The least-cost starting basis as a walk over every cell in stable cost
    order that skips the closed rows and columns one by one; returns (flow,
    basis), the basis in the order the cells were allocated."""
    import numpy as np

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


def _solve_tree(basis, supply, demand, m, n):
    """Solve the marginal equations on a candidate basis by leaf
    elimination; returns None when the basis is not a forest covering the
    constraints (a cycle or an unsatisfiable remainder shows up as a
    mismatch)."""
    remaining = set(basis)
    row_need = list(supply)
    col_need = list(demand)
    row_cells = {i: {c for c in remaining if c[0] == i} for i in range(m)}
    col_cells = {j: {c for c in remaining if c[1] == j} for j in range(n)}
    alloc = {}
    while remaining:
        leaf = None
        for i in range(m):
            if len(row_cells[i]) == 1:
                leaf = ("row", i, next(iter(row_cells[i])))
                break
        if leaf is None:
            for j in range(n):
                if len(col_cells[j]) == 1:
                    leaf = ("col", j, next(iter(col_cells[j])))
                    break
        if leaf is None:
            return None  # a cycle: not a basic solution
        _, index, cell = leaf
        i, j = cell
        value = row_need[i] if leaf[0] == "row" else col_need[j]
        alloc[cell] = value
        row_need[i] -= value
        col_need[j] -= value
        remaining.discard(cell)
        row_cells[i].discard(cell)
        col_cells[j].discard(cell)
    if any(abs(v) > 1e-9 for v in row_need) or any(abs(v) > 1e-9 for v in col_need):
        return None
    return alloc


def pearson_oracle(xs, ys):
    import numpy as np

    return float(np.corrcoef(np.asarray(xs, float), np.asarray(ys, float))[0, 1])


def mean_logprob_confidence_oracle(token_logprobs):
    return math.exp(sum(token_logprobs) / len(token_logprobs))


# ---------------------------------------------------------------- causal

def scm_joint_oracle(scm):
    """Nested-loop exact joint as a dict keyed by value tuples."""
    joint = {}
    sup = scm.supports
    for di, d in enumerate(sup["D"]):
        for ti, t in enumerate(sup["T"]):
            for vi, v in enumerate(sup["S_prev"]):
                for pi, p in enumerate(sup["P"]):
                    for si, s in enumerate(sup["S"]):
                        prob = (
                            float(scm.p_d[di])
                            * float(scm.p_t_given_d[di][ti])
                            * float(scm.p_sprev[vi])
                            * float(scm.p_p_given_t_sprev[ti][vi][pi])
                            * float(scm.p_s[pi][ti][vi][di][si])
                        )
                        joint[(d, t, v, p, s)] = joint.get((d, t, v, p, s), 0.0) + prob
    return joint


def scm_surgery_oracle(scm, do):
    """Graph surgery by nested loops: intervened mechanisms become
    indicator functions."""
    sup = scm.supports
    result = {s: 0.0 for s in sup["S"]}
    for di, d in enumerate(sup["D"]):
        for ti, t in enumerate(sup["T"]):
            if "T" in do:
                if do["T"] != t:
                    continue
                p_t = 1.0
            else:
                p_t = float(scm.p_t_given_d[di][ti])
            for vi, v in enumerate(sup["S_prev"]):
                if "S_prev" in do:
                    if do["S_prev"] != v:
                        continue
                    p_v = 1.0
                else:
                    p_v = float(scm.p_sprev[vi])
                for pi, p in enumerate(sup["P"]):
                    if "P" in do:
                        if do["P"] != p:
                            continue
                        p_p = 1.0
                    else:
                        p_p = float(scm.p_p_given_t_sprev[ti][vi][pi])
                    for si, s in enumerate(sup["S"]):
                        result[s] += (
                            float(scm.p_d[di])
                            * p_t
                            * p_v
                            * p_p
                            * float(scm.p_s[pi][ti][vi][di][si])
                        )
    return result


def frontdoor_oracle(scm, do_t, do_v):
    """Front-door sum computed from the oracle joint with explicit loops."""
    joint = scm_joint_oracle(scm)
    sup = scm.supports

    def marg_tv(t, v):
        return sum(
            joint[(d, t, v, p, s)]
            for d in sup["D"]
            for p in sup["P"]
            for s in sup["S"]
        )

    def p_given(t, v):
        denom = marg_tv(t, v)
        return {
            p: sum(joint[(d, t, v, p, s)] for d in sup["D"] for s in sup["S"]) / denom
            for p in sup["P"]
        }

    def s_given(p, t, v):
        denom = sum(joint[(d, t, v, p, s)] for d in sup["D"] for s in sup["S"])
        if denom == 0.0:
            return None
        return {
            s: sum(joint[(d, t, v, p, s)] for d in sup["D"]) / denom for s in sup["S"]
        }

    mediator = p_given(do_t, do_v)
    result = {s: 0.0 for s in sup["S"]}
    for p in sup["P"]:
        if mediator[p] == 0.0:
            continue
        for t in sup["T"]:
            for v in sup["S_prev"]:
                weight = marg_tv(t, v)
                if weight == 0.0:
                    continue
                conditional = s_given(p, t, v)
                for s in sup["S"]:
                    result[s] += mediator[p] * weight * conditional[s]
    return result
