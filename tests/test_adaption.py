"""Edge-wise adaption: weight shifts, selection oracle, invariances."""

import math
import random
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from nsplan import adaption, embeddings
from nsplan.adaption import adapt_weights, select, surface
from nsplan.admissible import load_admissible_set
from nsplan.embeddings import HashEmbedding, cosine, embed
from nsplan.entities import tokenize
from nsplan.errors import TransportError
from nsplan.generation import KnowledgeFollowerGenerator
from nsplan.kg import AdaptedTriplet, KnowledgeGraph, Triplet
from nsplan.planner import PlannerConfig, plan


def _adapted(head, relation, tail, weight, adapted_weight):
    return AdaptedTriplet(head, relation, tail, weight, adapted_weight)


def _graph(rows):
    return KnowledgeGraph([Triplet(*row) for row in rows])


def _triplets(graph):
    """Every triplet of ``graph``, in rank order."""
    return [graph.triplet(r) for r in range(graph.edge_count)]


def _adapt(graph, task, provider, cfg):
    """``adapt_weights`` over every triplet of ``graph``, in rank order."""
    return adapt_weights(graph, np.arange(graph.edge_count), task, provider, cfg)


def _ungated(sub, task, provider):
    """Every triplet adapted by the paper's identity, none gated: the input
    ``oracles.select_oracle`` applies both thresholds to."""
    task_vec = embed(provider, task)
    return tuple(
        _adapted(t.head, t.relation, t.tail, t.weight,
                 t.weight + cosine(embed(provider, surface(t.tail)), task_vec))
        for t in sub
    )


# Gates nothing a hash embedder scores: adapted weights of triplets weighing
# at least 1 are >= 0, and every cosine is >= -1.
KEEP_ALL = PlannerConfig(edge_threshold=0.0, cos_keep_threshold=-1.0)


class _Cosines:
    """Two-dimensional provider: the task text points along x, and each text
    in ``cosines`` at that cosine to it."""

    dim = 2

    def __init__(self, cosines):
        self.cosines = cosines

    def embed(self, text):
        c = self.cosines.get(text, 1.0)
        return [c, math.sqrt(1.0 - c * c)]


WEIGHTS = st.floats(min_value=0.0, max_value=10.0, exclude_min=True)
NODES = st.sampled_from(["wash_hair", "soap", "towel", "shower", "water", "clean"])


@st.composite
def subgraphs(draw):
    """A graph of up to 12 triplets."""
    n = draw(st.integers(min_value=0, max_value=12))
    triplets = []
    seen = set()
    for _ in range(n):
        head = draw(NODES)
        tail = draw(NODES)
        rel = draw(st.sampled_from(["HasSubevent", "HasPrerequisite", "UsedFor"]))
        if (head, rel, tail) in seen:
            continue
        seen.add((head, rel, tail))
        triplets.append((head, rel, tail, draw(WEIGHTS)))
    return _graph(triplets)


class TestAdaptWeights:
    def test_shift_is_tail_task_cosine(self, hash_embedder):
        graph = _graph([("shower", "HasSubevent", "wash_hair", 2.0)])
        task = "wash your hair"
        out = _adapt(graph, task, hash_embedder, KEEP_ALL)
        t = out[0]
        want = cosine(
            embed(hash_embedder, surface("wash_hair")), embed(hash_embedder, task)
        )
        assert t.adapted_weight == pytest.approx(t.weight + want, abs=1e-12)
        assert t.weight == 2.0

    @given(subgraphs())
    @settings(max_examples=50, deadline=None)
    def test_shift_bounded_by_one(self, graph):
        out = _adapt(graph, "take a shower", HashEmbedding(dim=32), KEEP_ALL)
        for t in out:
            assert -1.0 <= t.adapted_weight - t.weight <= 1.0

    def test_keeps_the_order_of_the_ranks_and_the_weights(self, hash_embedder):
        graph = _graph([("a", "UsedFor", "b", 1.0), ("b", "UsedFor", "c", 2.0)])
        out = _adapt(graph, "task", hash_embedder, KEEP_ALL)
        assert [t.key for t in out] == [("b", "UsedFor", "c"), ("a", "UsedFor", "b")]  # rank order
        assert [t.weight for t in out] == [2.0, 1.0]
        assert all(type(t) is AdaptedTriplet for t in out)
        reverse = adapt_weights(graph, np.array([1, 0]), "task", hash_embedder, KEEP_ALL)
        assert reverse == out[::-1]

    def test_embeds_the_task_then_each_new_tail_in_order_of_first_appearance(self):
        class Recording(HashEmbedding):
            def __init__(self):
                super().__init__(dim=32)
                self.asked = []

            def embed(self, text):
                self.asked.append(text)
                return super().embed(text)

        # rank order holds the tails zeta, alpha, zeta, mid; their node ids are sorted by name
        graph = _graph([("a", "UsedFor", "zeta", 4.0), ("b", "UsedFor", "alpha", 3.0),
                        ("c", "UsedFor", "zeta", 2.0), ("d", "UsedFor", "mid", 1.0)])
        provider = Recording()
        _adapt(graph, "task words", provider, KEEP_ALL)
        assert provider.asked == ["task words", "zeta", "alpha", "mid"]

    def test_same_tail_same_shift(self, hash_embedder):
        graph = _graph([("a", "UsedFor", "shared", 1.0), ("b", "HasSubevent", "shared", 5.0)])
        out = _adapt(graph, "some task", hash_embedder, KEEP_ALL)
        shifts = {round(t.adapted_weight - t.weight, 12) for t in out}
        assert len(shifts) == 1

    def test_no_ranks(self, hash_embedder):
        assert _adapt(KnowledgeGraph(()), "task", hash_embedder, KEEP_ALL) == ()
        graph = _graph([("a", "UsedFor", "b", 1.0)])
        assert adapt_weights(graph, np.arange(0), "task", hash_embedder, KEEP_ALL) == ()

    CFG = PlannerConfig(top_k=10, edge_threshold=0.6, concept_ratio=3, cos_keep_threshold=0.4)

    def test_edge_threshold_drops_triplets(self):
        # Both pass the cosine gate (shift 0.49 / 0.51); only y clears 0.6.
        graph = _graph([("a", "UsedFor", "x", 0.1), ("a", "UsedFor", "y", 0.1)])
        out = _adapt(graph, "task words here", _Cosines({"x": 0.49, "y": 0.51}), self.CFG)
        assert [t.tail for t in out] == ["y"]

    def test_cosine_gate_uses_recovered_shift(self):
        # adapted - weight is 0.39 for x (dropped) and 0.41 for y (kept).
        graph = _graph([("a", "UsedFor", "x", 1.0), ("a", "UsedFor", "y", 1.0)])
        out = _adapt(graph, "task words here", _Cosines({"x": 0.39, "y": 0.41}), self.CFG)
        assert [t.tail for t in out] == ["y"]

    @given(subgraphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_gate_keeps_a_triplet_exactly_at_each_threshold(self, graph, data):
        """A threshold equal to an adapted weight, or to a recovered shift,
        keeps the triplets at that value; a threshold one ulp above, which
        leaves them one ulp below it, drops them, as the oracle does."""
        task = "take a shower"
        provider = HashEmbedding(dim=32)
        ungated = _ungated(_triplets(graph), task, provider)
        candidates = [t for t in ungated if t.adapted_weight >= 0.0]  # edge_threshold >= 0
        assume(candidates)
        edge = data.draw(st.sampled_from([t.adapted_weight for t in candidates]))
        shift = data.draw(st.sampled_from([t.adapted_weight - t.weight for t in candidates]))
        at_edge = [t for t in ungated if t.adapted_weight == edge]
        at_shift = [t for t in candidates if t.adapted_weight - t.weight == shift]
        for edge_threshold, cos_keep_threshold, on_threshold, kept in [
            (edge, -2.0, at_edge, True),
            (math.nextafter(edge, math.inf), -2.0, at_edge, False),
            (0.0, shift, at_shift, True),
            (0.0, math.nextafter(shift, math.inf), at_shift, False),
        ]:
            cfg = PlannerConfig(
                top_k=100, edge_threshold=edge_threshold, concept_ratio=100,
                cos_keep_threshold=cos_keep_threshold,
            )
            got = _adapt(graph, task, provider, cfg)
            assert all((t in got) is kept for t in on_threshold)
            want = oracles.select_oracle(
                ungated, tokenize(task), top_k=100, edge_threshold=edge_threshold,
                cos_keep_threshold=cos_keep_threshold, concept_ratio=100,
            )
            assert list(select(got, cfg, task)) == want


class _Drawn:
    """Provider with given raw vectors for some texts and hash vectors for
    the rest."""

    kind = "table"

    def __init__(self, dim, vectors):
        self.dim = dim
        self.vectors = vectors
        self._hash = HashEmbedding(dim=dim)

    def embed(self, text):
        return self.vectors.get(text, self._hash.embed(text))


TASK = "take a shower"
TAILS = ["wash_hair", "soap", "towel", "shower", "water", "clean", "dry_off", "turn_on_tap", "rinse_body"]


@st.composite
def adaption_cases(draw):
    """(provider, graph, edge_threshold, cos_keep_threshold), each
    threshold the exact or the matrix-product score of a drawn triplet, as an
    adapted weight or a shift, most often one of a triplet whose two scores
    differ. The task and some tails get dense random vectors, whose
    matrix-product scores often differ from ``cosine`` in the last bits;
    some texts get the zero vector."""
    dim = draw(st.sampled_from([3, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dense = [TASK, *sorted(draw(st.sets(st.sampled_from([surface(t) for t in TAILS]))))]
    zero = draw(st.sets(st.sampled_from(dense), max_size=2))
    provider = _Drawn(dim, {t: np.zeros(dim) if t in zero else rng.uniform(-1.0, 1.0, dim) for t in dense})
    # a weight of 1e-300 adds nothing to a cosine, so the adapted weight is the score itself
    weights = st.one_of(st.just(1e-300), st.sampled_from([1.0, 2.5, 1e7, 3e15]),
                        st.floats(min_value=1e-300, max_value=10.0))
    graph = KnowledgeGraph(
        Triplet(draw(NODES), draw(st.sampled_from(["HasSubevent", "UsedFor"])), draw(st.sampled_from(TAILS)),
                draw(weights))
        for _ in range(draw(st.integers(min_value=0, max_value=10)))
    )
    triplets = _triplets(graph)
    task_vec = embed(provider, TASK)
    distinct = list(dict.fromkeys(t.tail for t in triplets))
    rows = np.array([embed(provider, surface(tail)) for tail in distinct]).reshape(len(distinct), dim)
    approx = dict(zip(distinct, np.clip(rows @ task_vec, -1.0, 1.0).tolist()))
    edges, shifts = [0.0], [-1.0]
    near_edges, near_shifts = [], []  # those of triplets whose two scores differ
    for t in triplets:
        scores = (approx[t.tail], cosine(embed(provider, surface(t.tail)), task_vec))
        for score in scores:
            adapted = t.weight + score
            found = ([adapted] if adapted >= 0.0 else [], [score, adapted - t.weight])
            edges += found[0]
            shifts += found[1]
            if scores[0] != scores[1]:
                near_edges += found[0]
                near_shifts += found[1]

    def threshold(every, near):
        return draw(st.sampled_from(near if near and draw(st.booleans()) else every))

    return provider, graph, threshold(edges, near_edges), threshold(shifts, near_shifts)


def _hex(rows):
    return [(h, r, t, float.hex(w), float.hex(a)) for h, r, t, w, a in rows]


class TestAdaptOracle:
    @given(adaption_cases(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_triplet_scan(self, case, data):
        """On every rank of the graph, or on a drawn subset of them, as
        sampling hands them over."""
        provider, graph, edge_threshold, cos_keep_threshold = case
        ranks = range(graph.edge_count)
        if data.draw(st.booleans()):
            ranks = sorted(data.draw(st.sets(st.sampled_from(ranks))) if graph.edge_count else ())
        cfg = PlannerConfig(edge_threshold=edge_threshold, cos_keep_threshold=cos_keep_threshold)
        got = adapt_weights(graph, np.array(ranks, np.intp), TASK, provider, cfg)
        want = oracles.adapt_oracle([graph.triplet(r) for r in ranks], TASK, provider, edge_threshold,
                                    cos_keep_threshold)
        assert _hex((t.head, t.relation, t.tail, t.weight, t.adapted_weight) for t in got) == _hex(want)


TASKS = ["take a shower", "wash hair", "dry off with a towel", "turn on tap", "rinse body with water"]


def _odd_vector(rng, dim):
    """A dense raw vector of one scale, tiny, unit or huge, with some
    entries -0.0 and some 0.0."""
    vec = rng.uniform(-1.0, 1.0, dim) * rng.choice([1e-300, 1.0, 1e300])
    vec[rng.random(dim) < 0.2] = -0.0
    vec[rng.random(dim) < 0.1] = 0.0
    return vec


@st.composite
def warm_cases(draw):
    """(graph, calls, budget): a graph over TAILS and 2-8 adaption calls on
    it, each (provider, task, ranks), by two providers of one dimension
    alternating: a table-like one whose drawn texts hold tiny, huge and
    -0.0 entries, and a hash one. ``budget`` is None, for the default, or
    a few dense rows' bytes."""
    dim = draw(st.sampled_from([3, 16]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    texts = [*TASKS, *(surface(t) for t in TAILS)]
    providers = (_Drawn(dim, {t: _odd_vector(rng, dim) for t in texts if draw(st.booleans())}),
                 HashEmbedding(dim=dim))
    graph = KnowledgeGraph(
        Triplet(draw(NODES), draw(st.sampled_from(["HasSubevent", "UsedFor"])), draw(st.sampled_from(TAILS)),
                draw(st.sampled_from([1e-300, 0.5, 1.0, 2.5])))
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    )
    all_ranks = range(graph.edge_count)
    ranks = st.one_of(st.just(list(all_ranks)), st.sets(st.sampled_from(all_ranks)).map(sorted))
    calls = draw(st.lists(st.tuples(st.sampled_from(providers), st.sampled_from(TASKS), ranks),
                          min_size=2, max_size=8))
    return graph, calls, draw(st.sampled_from([None, 400, 1500]))


def _rebuilt(state, row, dim):
    """Row ``row`` of a vector store's ``state``, as a dense vector."""
    _, indptr, _, values, dims = state
    vec = np.zeros(dim)
    vec[dims[indptr[row]:indptr[row + 1]]] = values[indptr[row]:indptr[row + 1]]
    return vec


def _named(graph, dim):
    """(store, [(text, row, norm), ...]): the vector store that ``graph``'s
    table is tagged with, and for each node the table names, its text, its
    row rebuilt from the store's state and its stored norm. A stale table
    names nothing."""
    store, clears, rows = adaption._TABLES[graph]
    state = store.state
    if clears != state[0]:
        return store, []
    return store, [(surface(graph.node_keys[node]), _rebuilt(state, rows[node], dim), state[2][rows[node]])
                   for node in np.flatnonzero(rows >= 0).tolist()]


def _drawn_graph(shower_graph):
    """A fresh copy of ``shower_graph`` and a provider with an odd dense
    vector for each of its nodes."""
    graph = KnowledgeGraph(shower_graph.triplet(r) for r in range(shower_graph.edge_count))
    rng = np.random.default_rng(5)
    return graph, _Drawn(16, {surface(key): _odd_vector(rng, 16) for key in graph.node_keys})


# Each rank window's four tails, with the task, fit; the store holds about six dense 16-dimension rows
SIX_ROWS = 6 * (64 + 16 + 12 * 16)
WINDOWS = [*range(0, 24), 0, 20, 7]


class TestStoreRows:
    @given(warm_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_warm_store_matches_the_per_triplet_scan(self, case, data):
        """Calls in sequence on one graph, so later ones read the rows that
        earlier ones filled, with thresholds at exact scores of the call.
        After each call, every row the graph's table names is ``embed`` of
        its node's text, and its stored norm is ``np.linalg.norm`` of it."""
        graph, calls, budget = case
        providers = {id(provider): provider for provider, _, _ in calls}.values()
        with mock.patch.object(embeddings, "MEMO_BUDGET_BYTES", budget or embeddings.MEMO_BUDGET_BYTES):
            for provider, task, ranks in calls:
                triplets = [graph.triplet(r) for r in ranks]
                ungated = oracles.adapt_oracle(triplets, task, provider, -math.inf, -math.inf)
                edge = data.draw(st.sampled_from([0.0, *(a for *_, a in ungated if a >= 0.0)]))
                shift = data.draw(st.sampled_from([-1.0, *(a - w for *_, w, a in ungated)]))
                cfg = PlannerConfig(edge_threshold=edge, cos_keep_threshold=shift)
                got = adapt_weights(graph, np.array(ranks, np.intp), task, provider, cfg)
                if graph in adaption._TABLES:  # not before a call with some rank
                    store, named = _named(graph, provider.dim)
                    owner = next(p for p in providers if embeddings.vector_store(p) is store)
                    for text, row, norm in named:
                        assert row.tobytes() == embed(owner, text).tobytes()
                        assert norm.tobytes() == np.linalg.norm(row).tobytes()
                want = oracles.adapt_oracle(triplets, task, provider, edge, shift)
                assert _hex(got) == _hex(want)

    def test_a_store_past_its_budget_clears_and_stays_exact(self, shower_graph, monkeypatch):
        """Each call asks for four ranks' tails, and the budget holds about
        six dense rows: the store clears, its bytes stay within the budget,
        the graph's table names at least the call's own tails after each
        call, and every output stays bit-equal to the scan."""
        graph, provider = _drawn_graph(shower_graph)
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", SIX_ROWS)
        for first in WINDOWS:
            ranks = np.arange(first, first + 4)
            got = adapt_weights(graph, ranks, TASK, provider, KEEP_ALL)
            store, named = _named(graph, 16)
            assert store is embeddings.vector_store(provider)
            assert store.text_bytes + sum(a.nbytes for a in store.state[1:]) <= SIX_ROWS
            assert {surface(graph.node_keys[node]) for node in graph.tail_ids[ranks]} <= {text for text, *_ in named}
            want = oracles.adapt_oracle([graph.triplet(r) for r in ranks], TASK, provider, 0.0, -1.0)
            assert _hex(got) == _hex(want)
        assert embeddings.memo_clears(provider) > 0

    def test_a_row_is_published_before_it_is_named(self, shower_graph, monkeypatch):
        """A reader finds a row through the store's index or a graph's table
        and then reads the store's state, so the state that holds a row's
        entries and norm must be published before either names the row. The
        index and the table of graphs check that at each write, while the
        store grows by doubling and clears past a small budget."""
        graph, provider = _drawn_graph(shower_graph)
        reference = _Drawn(16, provider.vectors)
        embeddings.vector_store(reference)  # a plain store, which checks nothing
        capacities = []

        def check(store, text, row):
            state = store.state
            vec = _rebuilt(state, row, 16)
            assert vec.tobytes() == embed(reference, text).tobytes(), f"{text!r} named before its row was published"
            assert state[2][row].tobytes() == np.linalg.norm(vec).tobytes()
            capacities.append(len(state[3]))

        class Index(dict):
            def __init__(self, store, held):
                super().__init__(held)
                self.store = store

            def update(self, pairs):
                for text, row in pairs:
                    check(self.store, text, row)
                    self[text] = row

        class Store(embeddings.VectorStore):
            def __setattr__(self, name, value):
                super().__setattr__(name, Index(self, value) if name == "index" else value)

        class Tables(weakref.WeakKeyDictionary):
            def __setitem__(self, key, table):
                store, _, rows = table
                for node in np.flatnonzero(rows >= 0).tolist():
                    check(store, surface(key.node_keys[node]), rows[node])
                super().__setitem__(key, table)

        monkeypatch.setattr(embeddings, "VectorStore", Store)
        monkeypatch.setattr(adaption, "_TABLES", Tables())
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", SIX_ROWS)
        for first in WINDOWS:
            ranks = np.arange(first, first + 4)
            got = adapt_weights(graph, ranks, TASK, provider, KEEP_ALL)
            assert _hex(got) == _hex(oracles.adapt_oracle([graph.triplet(r) for r in ranks], TASK, provider, 0.0, -1.0))
        assert len(set(capacities)) > 2 and embeddings.memo_clears(provider) > 0  # grown and cleared

    def test_another_provider_replaces_the_table(self, tv_graph):
        graph = KnowledgeGraph(tv_graph.triplet(r) for r in range(tv_graph.edge_count))
        first, second = HashEmbedding(dim=16), HashEmbedding(dim=16, seed=1)
        for provider in (first, second, first):
            adapt_weights(graph, np.arange(graph.edge_count), "watch tv", provider, KEEP_ALL)
            store, _, rows = adaption._TABLES[graph]
            assert store is embeddings.vector_store(provider)
            assert (rows[graph.tail_ids] >= 0).all()

    def test_a_failing_fill_leaves_the_table_as_it_was(self, tv_graph):
        class FailsOnce(HashEmbedding):
            fail = True

            def embed(self, text):
                if text == "television":
                    self.fail, fail = False, self.fail
                    if fail:
                        raise TransportError("down", endpoint="loopback")
                return super().embed(text)

        graph = KnowledgeGraph(tv_graph.triplet(r) for r in range(tv_graph.edge_count))
        provider = FailsOnce(dim=16)
        adapt_weights(graph, np.array([0]), "watch tv", provider, KEEP_ALL)
        before = adaption._TABLES[graph]
        held = before[2].copy()
        with pytest.raises(TransportError):
            _adapt(graph, "watch tv", provider, KEEP_ALL)
        assert adaption._TABLES[graph] is before and (before[2] == held).all()
        got = _adapt(graph, "watch tv", provider, KEEP_ALL)
        want = oracles.adapt_oracle(_triplets(graph), "watch tv", provider, 0.0, -1.0)
        assert _hex(got) == _hex(want)

    def test_a_store_cleared_between_calls_is_asked_again(self, tv_graph, monkeypatch):
        """Other texts embedded between two calls on one graph clear the
        store, so the graph's table is stale: the second call asks the store
        for the task and for each distinct tail once, as a warm call asks
        only for the task, and its triplets stay bit-equal to the scan."""
        graph = KnowledgeGraph(tv_graph.triplet(r) for r in range(tv_graph.edge_count))
        provider = HashEmbedding(dim=16)
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", 4000)  # the task and every tail fit

        def asked(call):
            before = sum(embeddings.memo_counts(provider).values())
            got = call()
            return sum(embeddings.memo_counts(provider).values()) - before, got

        _adapt(graph, "watch tv", provider, KEEP_ALL)
        assert asked(lambda: _adapt(graph, "watch tv", provider, KEEP_ALL))[0] == 1
        clears = embeddings.memo_clears(provider)
        embeddings.embed_many(provider, [f"other text {i}" for i in range(40)])
        assert embeddings.memo_clears(provider) > clears
        count, got = asked(lambda: _adapt(graph, "watch tv", provider, KEEP_ALL))
        assert count == 1 + len(set(graph.tail_ids.tolist()))
        assert _hex(got) == _hex(oracles.adapt_oracle(_triplets(graph), "watch tv", provider, 0.0, -1.0))
        assert asked(lambda: _adapt(graph, "watch tv", provider, KEEP_ALL))[0] == 1  # the table is current again


def _synthetic_graph():
    """A seeded graph of household nouns and noun pairs: each noun has 40
    edges to pair nodes, and each pair node 3 edges to other pairs."""
    rng = random.Random(11)
    nouns = "dish cup plate bowl pan sink table towel lamp sofa door window shirt book phone chair".split()
    pairs = [f"{a}_{b}" for a in nouns for b in nouns if a != b]
    relations = ["HasSubevent", "UsedFor", "AtLocation", "HasPrerequisite", "CapableOf"]
    rows = {}
    for head, fanout in [*((n, 40) for n in nouns), *((p, 3) for p in pairs)]:
        for tail in rng.sample(pairs, fanout):
            rows[head, rng.choice(relations), tail] = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
    tasks = [f"{rng.choice(['wash', 'clean', 'fix', 'check'])} the {rng.choice(nouns)} and the {rng.choice(nouns)}"
             for _ in range(120)]
    return KnowledgeGraph((*key, w) for key, w in rows.items()), tasks


@pytest.mark.parametrize("budget", [None, 10_000], ids=["default", "small-budget"])
def test_threads_sharing_a_graph_plan_as_one_thread_does(fixture_path, monkeypatch, budget):
    """Four threads that plan disjoint slices of one task list on one fresh
    graph and provider fill the provider's vector store and the graph's
    table of rows together, switching as often as the interpreter allows;
    each plan equals a one-thread run's, in each of three trials."""
    if budget is not None:
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", budget)

    def setup():
        graph, tasks = _synthetic_graph()
        return graph, tasks, load_admissible_set(fixture_path("admissible_household.json")), HashEmbedding(dim=64)

    def run(graph, task, admissible, provider):
        return plan(task, graph, admissible, KnowledgeFollowerGenerator(), provider).dumps()

    graph, tasks, admissible, provider = setup()
    serial = [run(graph, task, admissible, provider) for task in tasks]
    threads = 4
    for trial in range(3):
        graph, tasks, admissible, provider = setup()
        got = [None] * len(tasks)
        start = threading.Barrier(threads, timeout=30)

        def work(i):
            start.wait()
            for j in range(i, len(tasks), threads):
                got[j] = run(graph, tasks[j], admissible, provider)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert got == serial, f"trial {trial}"
        if budget is not None:
            assert embeddings.memo_clears(provider) > 0


class TestSelect:
    @given(
        subgraphs(),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sort_oracle(self, graph, top_k, edge_threshold, cos_keep_threshold):
        task = "take a shower"
        provider = HashEmbedding(dim=32)
        cfg = PlannerConfig(
            top_k=top_k, edge_threshold=edge_threshold, concept_ratio=2,
            cos_keep_threshold=cos_keep_threshold,
        )
        got = select(_adapt(graph, task, provider, cfg), cfg, task)
        want = oracles.select_oracle(
            _ungated(_triplets(graph), task, provider),
            tokenize(task),
            top_k=top_k,
            edge_threshold=edge_threshold,
            cos_keep_threshold=cos_keep_threshold,
            concept_ratio=2,
        )
        assert list(got) == want

    def test_constant_shift_keeps_node_ranking(self):
        base = [
            ("a", "UsedFor", "x", 3.0),
            ("a", "UsedFor", "y", 2.0),
            ("b", "HasSubevent", "z", 1.0),
        ]
        cfg = PlannerConfig(top_k=2, edge_threshold=0.0, concept_ratio=3, cos_keep_threshold=-2.0)

        def ranked_nodes(shift):
            sub = tuple(_adapted(h, r, t, w, w + shift) for h, r, t, w in base)
            out = select(sub, cfg, "do the thing")
            return sorted({t.tail for t in out})

        assert ranked_nodes(0.0) == ranked_nodes(0.7) == ["x", "y"]

    def test_cap_is_min_of_topk_and_ratio_times_tokens(self):
        triplets = [("h", "UsedFor", f"n{i}", float(10 - i)) for i in range(8)]
        sub = tuple(_adapted(h, r, t, w, w) for h, r, t, w in triplets)
        cfg = PlannerConfig(top_k=10, edge_threshold=0.0, concept_ratio=2, cos_keep_threshold=-1.0)
        out = select(sub, cfg, "one two three")  # cap = min(10, 2*3) = 6
        assert len({t.tail for t in out}) == 6
        cfg_small = PlannerConfig(
            top_k=4, edge_threshold=0.0, concept_ratio=2, cos_keep_threshold=-1.0
        )
        out_small = select(sub, cfg_small, "one two three")  # cap = min(4, 6) = 4
        assert {t.tail for t in out_small} == {"n0", "n1", "n2", "n3"}

    def test_node_rank_uses_best_incident_edge(self):
        sub = (
            _adapted("a", "UsedFor", "x", 1.0, 5.0),
            _adapted("b", "UsedFor", "x", 1.0, 0.7),
            _adapted("a", "UsedFor", "y", 1.0, 3.0),
        )
        cfg = PlannerConfig(top_k=1, edge_threshold=0.6, concept_ratio=3, cos_keep_threshold=-2.0)
        out = select(sub, cfg, "t")
        # x wins the single slot on its best edge; both its surviving edges stay.
        assert {t.tail for t in out} == {"x"}
        assert len(out) == 2

    def test_output_sorted_by_adapted_weight_then_lex(self):
        sub = (
            _adapted("b", "UsedFor", "x", 1.0, 2.0),
            _adapted("a", "UsedFor", "x", 1.0, 2.0),
            _adapted("a", "HasSubevent", "x", 1.0, 3.0),
        )
        cfg = PlannerConfig(top_k=5, edge_threshold=0.0, concept_ratio=3, cos_keep_threshold=-2.0)
        out = select(sub, cfg, "t")
        assert [t.key for t in out] == [
            ("a", "HasSubevent", "x"),
            ("a", "UsedFor", "x"),
            ("b", "UsedFor", "x"),
        ]

    def test_empty_task_text_still_has_cap_one_token_floor(self):
        triplets = [("h", "UsedFor", f"n{i}", float(9 - i)) for i in range(5)]
        sub = tuple(_adapted(h, r, t, w, w) for h, r, t, w in triplets)
        cfg = PlannerConfig(top_k=10, edge_threshold=0.0, concept_ratio=3, cos_keep_threshold=-1.0)
        out = select(sub, cfg, "")
        assert len({t.tail for t in out}) == 3  # min(10, 3 * max(1, 0))


class TestAdaptionConfig:
    """The selection fields of PlannerConfig."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"top_k": -1}, {"edge_threshold": -0.1}, {"concept_ratio": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)


def test_surface_replaces_underscores():
    assert surface("take_out_your_clothes") == "take out your clothes"


def test_pipeline_on_shower_fixture(shower_graph, hash_embedder):
    from nsplan.kg import sample_subgraph

    ranks = sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
    cfg = PlannerConfig(top_k=10, edge_threshold=0.0, concept_ratio=3, cos_keep_threshold=-1.0)
    adapted = adapt_weights(shower_graph, ranks, "take a shower", hash_embedder, cfg)
    assert all(np.isfinite(t.adapted_weight) for t in adapted)
    out = select(adapted, cfg, "take a shower")
    assert 0 < len(out) <= len(adapted)
    weights = [t.adapted_weight for t in out]
    assert weights == sorted(weights, reverse=True)
