"""Edge-wise adaption: weight shifts, selection oracle, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsplan.adaption import adapt_weights, select, surface
from nsplan.embeddings import HashEmbedding, cosine, embed
from nsplan.entities import tokenize
from nsplan.kg import AdaptedTriplet, Triplet
from nsplan.planner import PlannerConfig


def _adapted(head, relation, tail, weight, adapted_weight):
    return AdaptedTriplet(head, relation, tail, weight, adapted_weight)


def _fresh(triplets):
    """Adapted triplets whose adapted weight is still the original weight."""
    return tuple(_adapted(h, r, t, w, w) for h, r, t, w in triplets)


WEIGHTS = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
NODES = st.sampled_from(["wash_hair", "soap", "towel", "shower", "water", "clean"])


@st.composite
def subgraphs(draw):
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
    return _fresh(triplets)


class TestAdaptWeights:
    def test_shift_is_tail_task_cosine(self, hash_embedder):
        sub = _fresh([("shower", "HasSubevent", "wash_hair", 2.0)])
        task = "wash your hair"
        out = adapt_weights(sub, task, hash_embedder)
        t = out[0]
        want = cosine(
            embed(hash_embedder, surface("wash_hair")), embed(hash_embedder, task)
        )
        assert t.adapted_weight == pytest.approx(t.weight + want, abs=1e-12)
        assert t.weight == 2.0

    @given(subgraphs())
    @settings(max_examples=50, deadline=None)
    def test_shift_bounded_by_one(self, sub):
        out = adapt_weights(sub, "take a shower", HashEmbedding(dim=32))
        for t in out:
            assert -1.0 <= t.adapted_weight - t.weight <= 1.0

    def test_preserves_order_and_weights(self, hash_embedder):
        # the graph's own triplets, as sample_subgraph hands them over
        sub = (Triplet("a", "UsedFor", "b", 1.0), Triplet("b", "UsedFor", "c", 2.0))
        out = adapt_weights(sub, "task", hash_embedder)
        assert [t.key for t in out] == [t.key for t in sub]
        assert [t.weight for t in out] == [1.0, 2.0]
        assert all(type(t) is AdaptedTriplet for t in out)

    def test_same_tail_same_shift(self, hash_embedder):
        sub = _fresh(
            [("a", "UsedFor", "shared", 1.0), ("b", "HasSubevent", "shared", 5.0)]
        )
        out = adapt_weights(sub, "some task", hash_embedder)
        shifts = {round(t.adapted_weight - t.weight, 12) for t in out}
        assert len(shifts) == 1

    def test_empty_subgraph(self, hash_embedder):
        assert adapt_weights((), "task", hash_embedder) == ()


class TestSelect:
    CFG = PlannerConfig(top_k=10, edge_threshold=0.6, concept_ratio=3, cos_keep_threshold=0.4)

    @given(subgraphs(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sort_oracle(self, sub, top_k):
        task = "take a shower"
        adapted = adapt_weights(sub, task, HashEmbedding(dim=32))
        cfg = PlannerConfig(
            top_k=top_k, edge_threshold=0.5, concept_ratio=2, cos_keep_threshold=-1.0
        )
        got = select(adapted, cfg, task)
        want = oracles.select_oracle(
            adapted,
            tokenize(task),
            top_k=top_k,
            edge_threshold=0.5,
            cos_keep_threshold=-1.0,
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

    def test_edge_threshold_drops_triplets(self):
        # Both pass the cosine gate (shift 0.49 / 0.51); only y clears 0.6.
        sub = (
            _adapted("a", "UsedFor", "x", 0.1, 0.59),
            _adapted("a", "UsedFor", "y", 0.1, 0.61),
        )
        out = select(sub, self.CFG, "task words here")
        assert [t.tail for t in out] == ["y"]

    def test_cosine_gate_uses_recovered_shift(self):
        # adapted - weight is 0.39 for x (dropped) and 0.41 for y (kept).
        sub = (
            _adapted("a", "UsedFor", "x", 1.0, 1.39),
            _adapted("a", "UsedFor", "y", 1.0, 1.41),
        )
        out = select(sub, self.CFG, "task words here")
        assert [t.tail for t in out] == ["y"]

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

    sub = sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
    adapted = adapt_weights(sub, "take a shower", hash_embedder)
    assert all(np.isfinite(t.adapted_weight) for t in adapted)
    cfg = PlannerConfig(top_k=10, edge_threshold=0.0, concept_ratio=3, cos_keep_threshold=-1.0)
    out = select(adapted, cfg, "take a shower")
    assert 0 < len(out) <= len(adapted)
    weights = [t.adapted_weight for t in out]
    assert weights == sorted(weights, reverse=True)
