"""Plan metrics: BLEU, ROUGE-1, exact WMD, embedding F1, Pearson."""

import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from nsplan import embeddings, metrics
from nsplan.embeddings import HashEmbedding, cosine, embed
from nsplan.metrics import (
    METRIC_NAMES,
    embed_match_f1,
    evaluate_corpus,
    evaluate_pair,
    pearson,
    plan_text,
    rouge1_f1,
    sentence_bleu,
    tokenize,
    wmd,
    wmd_transport,
)

SENTENCES = st.lists(
    st.sampled_from("walk to the bathroom find soap wash hair dry off sit".split()),
    min_size=1,
    max_size=8,
).map(" ".join)


class TestSentenceBleu:
    def test_identity_is_one(self):
        assert sentence_bleu("walk to the sofa", "walk to the sofa") == pytest.approx(1.0)

    def test_disjoint_is_tiny(self):
        assert sentence_bleu("aaa bbb", "ccc ddd") < 1e-6

    def test_empty_prediction_is_zero(self):
        assert sentence_bleu("", "walk") == 0.0

    def test_brevity_penalty_applies_only_when_shorter(self):
        shorter = sentence_bleu("walk to", "walk to the bathroom")
        assert shorter < 1.0
        longer = sentence_bleu("walk to the bathroom now", "walk to")
        assert longer <= 1.0

    @given(SENTENCES, SENTENCES)
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, pred, ref):
        want = oracles.bleu_oracle(tokenize(pred), tokenize(ref))
        assert sentence_bleu(pred, ref) == pytest.approx(want, abs=1e-12)

    def test_bounded(self):
        assert 0.0 <= sentence_bleu("walk walk walk", "walk") <= 1.0


class TestRouge:
    def test_identity_is_one(self):
        assert rouge1_f1("sit on sofa", "sit on sofa") == 1.0

    def test_disjoint_is_zero(self):
        assert rouge1_f1("aaa bbb", "ccc ddd") == 0.0

    def test_six_sevenths_example(self):
        got = rouge1_f1("walk to bathroom", "walk to the bathroom")
        assert got == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_clipping(self):
        # "walk walk" against one "walk": overlap clipped to 1.
        got = rouge1_f1("walk walk", "walk")
        assert got == pytest.approx(2 * (0.5 * 1.0) / 1.5, abs=1e-12)

    @given(SENTENCES, SENTENCES)
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_and_symmetry(self, pred, ref):
        want = oracles.rouge1_oracle(tokenize(pred), tokenize(ref))
        assert rouge1_f1(pred, ref) == pytest.approx(want, abs=1e-12)
        assert rouge1_f1(pred, ref) == pytest.approx(rouge1_f1(ref, pred), abs=1e-12)


class TestWmd:
    def test_identity_short_circuits(self, hash_embedder):
        assert wmd("soap up now", "soap up now", hash_embedder) == (0.0, 1.0)

    def test_identical_distribution_different_order(self, hash_embedder):
        assert wmd("sofa the on sit", "sit on the sofa", hash_embedder) == (0.0, 1.0)

    def test_symmetry_bit_identical(self, hash_embedder):
        a, b = "walk to the bathroom", "turn on the water"
        assert wmd(a, b, hash_embedder) == wmd(b, a, hash_embedder)

    def test_similarity_is_inverse_distance(self, hash_embedder):
        distance, similarity = wmd("find soap", "wash hair", hash_embedder)
        assert similarity == pytest.approx(1.0 / (1.0 + distance), abs=1e-15)
        assert distance > 0.0

    def test_empty_side_rejected(self, hash_embedder):
        with pytest.raises(ValueError):
            wmd("", "walk", hash_embedder)
        with pytest.raises(ValueError):
            wmd("walk", "", hash_embedder)

    def test_marginal_feasibility(self, hash_embedder):
        t = wmd_transport("walk to the bathroom bathroom", "wash your hair", hash_embedder)
        assert np.allclose(t.plan.sum(axis=1), t.weights_pred, atol=1e-9)
        assert np.allclose(t.plan.sum(axis=0), t.weights_ref, atol=1e-9)
        assert (t.plan >= -1e-9).all()
        assert t.distance == pytest.approx((t.plan * t.cost).sum(), abs=1e-12)

    def test_matches_vertex_oracle_2x2(self, hash_embedder):
        t = wmd_transport("soap water", "hair towel", hash_embedder)
        want = oracles.transport_vertex_oracle(
            list(t.weights_pred), list(t.weights_ref), t.cost.tolist()
        )
        assert t.distance == pytest.approx(want, abs=1e-9)

    def test_matches_vertex_oracle_3x2(self, hash_embedder):
        t = wmd_transport("soap water towel", "hair sofa", hash_embedder)
        want = oracles.transport_vertex_oracle(
            list(t.weights_pred), list(t.weights_ref), t.cost.tolist()
        )
        assert t.distance == pytest.approx(want, abs=1e-9)

    def test_uneven_counts_vertex_oracle(self, hash_embedder):
        t = wmd_transport("walk walk to sofa", "sit on the sofa", hash_embedder)
        want = oracles.transport_vertex_oracle(
            list(t.weights_pred), list(t.weights_ref), t.cost.tolist()
        )
        assert t.distance == pytest.approx(want, abs=1e-9)

    @given(SENTENCES, SENTENCES, SENTENCES)
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        provider = HashEmbedding(dim=32)
        dab = wmd(a, b, provider)[0]
        dbc = wmd(b, c, provider)[0]
        dac = wmd(a, c, provider)[0]
        assert dac <= dab + dbc + 1e-9


class _TokenTable:
    """Stub provider: one fixed raw vector per token."""

    def __init__(self, rows):
        self.rows = rows
        self.dim = len(next(iter(rows.values())))

    def embed(self, text):
        return self.rows[text]


@st.composite
def _token_tables(draw, extra_rows=5):
    """A seeded dense table over tokens "ta", "tb", ...: after the first
    token up to ``extra_rows`` rows, each dense, zero, or a copy, negation or
    rescaling of an earlier one; then two sides drawn from those tokens,
    repeats allowed."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [rng.standard_normal(dim)]
    for _ in range(draw(st.integers(0, extra_rows))):
        kind = draw(st.sampled_from(["dense", "zero", "copy", "negated", "scaled"]))
        earlier = rows[draw(st.integers(0, len(rows) - 1))]
        rows.append({
            "dense": rng.standard_normal(dim),
            "zero": np.zeros(dim),
            "copy": earlier.copy(),
            "negated": -earlier,
            "scaled": earlier * draw(st.floats(0.25, 8.0)),
        }[kind])
    vocab = [f"t{chr(ord('a') + i)}" for i in range(len(rows))]
    side = st.lists(st.sampled_from(vocab), min_size=1, max_size=12).map(" ".join)
    return _TokenTable(dict(zip(vocab, rows))), draw(side), draw(side)


def _table(**rows):
    return _TokenTable({t: np.array(v, dtype=np.float64) for t, v in rows.items()})


def _circle(**degrees):
    """Stub provider placing each token on the unit circle at its angle."""
    return _table(**{t: [math.cos(math.radians(d)), math.sin(math.radians(d))] for t, d in degrees.items()})


def _linprog_distance(weights_pred, weights_ref, cost):
    """The transport optimum by scipy's HiGHS LP solver, an independent check
    on the simplex. scipy is a test-only dependency, imported here so that
    importing this module or the oracles loads none of it."""
    from scipy.optimize import linprog

    m, n = cost.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    b_eq = np.concatenate([weights_pred, weights_ref])
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.x @ cost.ravel())


def _assert_feasible(t):
    assert np.abs(t.plan.sum(axis=1) - t.weights_pred).max() <= 1e-12
    assert np.abs(t.plan.sum(axis=0) - t.weights_ref).max() <= 1e-12
    assert (t.plan >= 0.0).all()


@st.composite
def _start_problems(draw):
    """(supply, demand, cost) as ``wmd_transport`` builds them: integer
    counts scaled to a common total, over costs with ties, zeros and
    duplicate rows; some draws make the two sides' counts equal, so a row
    and a column often empty together."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 2.0))
    rows = []
    for _ in range(m):
        duplicate = rows and draw(st.booleans())
        rows.append(list(draw(st.sampled_from(rows))) if duplicate else draw(st.lists(value, min_size=n, max_size=n)))
    counts = st.integers(1, 4)
    counts_p = draw(st.lists(counts, min_size=m, max_size=m))
    equal = m == n and draw(st.booleans())
    counts_r = list(counts_p) if equal else draw(st.lists(counts, min_size=n, max_size=n))
    n_p, n_r = sum(counts_p), sum(counts_r)
    return [c * n_r for c in counts_p], [c * n_p for c in counts_r], np.array(rows, dtype=np.float64)


class TestTransportSimplex:
    @given(_start_problems())
    @example(([1, 1], [1, 1], np.zeros((2, 2))))  # every cell tied at zero, equal marginals
    @example(([6], [1, 2, 3], np.array([[0.5, 0.0, 0.5]])))  # 1 x n
    @example(([1, 2, 3], [6], np.array([[1.0], [0.0], [1.0]])))  # m x 1
    @example(([2, 2, 2], [3, 3], np.array([[1.0, 0.5], [1.0, 0.5], [0.0, 2.0]])))  # duplicate rows
    @settings(max_examples=300, deadline=None)
    def test_least_cost_start_is_the_sorted_walk(self, problem):
        supply, demand, cost = problem
        flow, basis = metrics._least_cost_start(supply, demand, cost)
        want_flow, want_basis = oracles.least_cost_start_oracle(supply, demand, cost)
        assert basis == want_basis
        assert flow.tobytes() == want_flow.tobytes()

    @pytest.mark.parametrize("bland_after", [metrics.BLAND_AFTER, 0])
    @given(_token_tables(extra_rows=11))
    @example((_table(ta=[1, 0, 0], tb=[0, 1, 0], tc=[0, 0, 1], td=[1, 1, 1]), "ta tb", "tc td"))  # equal counts
    @example((_table(ta=[1, 0], tb=[0, 1], tc=[1, 1], td=[-1, 0]), "ta ta", "tb tc td"))  # 1 x n
    @example((_table(ta=[1, 0], tb=[0, 1], tc=[1, 1], td=[-1, 0]), "ta tb tc", "td td"))  # m x 1
    @example((_table(ta=[1, 2], tb=[1, 2], tc=[2, -1], td=[0, 1]), "ta tb tc", "tc td td"))  # duplicate rows, shared tc
    @example((_circle(ta=0, tb=80, tc=38, td=-40), "ta tb", "tc td"))  # least-cost start not optimal
    @settings(max_examples=100, deadline=None)
    def test_distance_matches_linprog(self, bland_after, case):
        provider, pred, ref = case
        with mock.patch.object(metrics, "BLAND_AFTER", bland_after):
            t = wmd_transport(pred, ref, provider)
        want = _linprog_distance(t.weights_pred, t.weights_ref, t.cost)
        assert t.distance == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert t.distance == float((t.plan * t.cost).sum())
        _assert_feasible(t)

    def test_pivots_away_from_a_suboptimal_start(self):
        # The cheapest cell, ta-tc at 38 degrees, starts the plan and leaves
        # tb to td at 120 degrees; the optimum crosses over, ta-td and tb-tc.
        t = wmd_transport("ta tb", "tc td", _circle(ta=0, tb=80, tc=38, td=-40))
        want = oracles.transport_vertex_oracle(list(t.weights_pred), list(t.weights_ref), t.cost.tolist())
        start, _ = metrics._least_cost_start([2, 2], [2, 2], t.cost)
        assert float((start * t.cost).sum()) / 4 > want + 0.4
        assert t.distance == pytest.approx(want, abs=1e-12)
        _assert_feasible(t)

    def test_fully_tied_instance_ends_feasible_and_repeats_bit_for_bit(self):
        # Six words a side, once each, every pair at the same distance: every
        # cell ties, and all but six of the eleven basic flows are zero.
        pred, ref = (" ".join(side + c for c in "abcdef") for side in "pr")
        provider = _table(**{w: [1.0, 0.0] for w in pred.split()}, **{w: [0.0, 1.0] for w in ref.split()})
        first, second = (wmd_transport(pred, ref, provider) for _ in range(2))
        for t in (first, second):
            _assert_feasible(t)
            assert t.distance == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert first.plan.tobytes() == second.plan.tobytes()

    def test_a_degenerate_run_turns_to_blands_rule(self, monkeypatch):
        # An assignment problem (every count one) is highly degenerate: on this
        # 7 x 7 one, with costs in [0, 2] and many ties, the most negative
        # reduced cost makes BLAND_AFTER degenerate pivots in a row.
        n = 7
        cost = np.array([[(i * j + 5 * i + 2 * j) % 17 / 8 for j in range(n)] for i in range(n)])
        rules = []
        entering = metrics._entering
        monkeypatch.setattr(metrics, "_entering", lambda reduced, bland: rules.append(bland) or entering(reduced, bland))
        flow = metrics._transport_simplex([n] * n, [n] * n, cost)
        assert True in rules
        assert (flow.sum(axis=0) == n).all() and (flow.sum(axis=1) == n).all() and (flow >= 0).all()
        weights = np.full(n, 1.0 / n)
        want = _linprog_distance(weights, weights, cost)
        assert float((flow * cost).sum()) / n**2 == pytest.approx(want, rel=1e-9)


class TestEmbedMatchF1:
    def test_identity_is_one(self, hash_embedder):
        assert embed_match_f1("wash your hair", "wash your hair", hash_embedder) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_token_closed_form(self, hash_embedder):
        cos = cosine(embed(hash_embedder, "soap"), embed(hash_embedder, "towel"))
        want = (cos + 1.0) / 2.0
        assert embed_match_f1("soap", "towel", hash_embedder) == pytest.approx(want, abs=1e-12)

    def test_token_permutation_invariant(self, hash_embedder):
        a = embed_match_f1("find the soap", "wash your hair", hash_embedder)
        b = embed_match_f1("soap find the", "hair wash your", hash_embedder)
        assert a == pytest.approx(b, abs=1e-12)

    def test_symmetry(self, hash_embedder):
        a = embed_match_f1("find soap", "wash hair now", hash_embedder)
        b = embed_match_f1("wash hair now", "find soap", hash_embedder)
        assert a == pytest.approx(b, abs=1e-12)

    def test_bounded(self, hash_embedder):
        got = embed_match_f1("aaa bbb ccc", "xxx yyy", hash_embedder)
        assert 0.0 <= got <= 1.0

    def test_empty_side_rejected(self, hash_embedder):
        with pytest.raises(ValueError):
            embed_match_f1("", "walk", hash_embedder)

    @given(_token_tables())
    @example((_table(ta=[1.0, 0.5], tb=[0.3, 1.0], tc=[-1.0, -1.0]), "ta tb ta", "tc tc"))  # all best < 0
    @example((_table(ta=[1.0] * 5, tb=[3.0] * 5, tc=[0.0] * 5), "ta tc tb", "tb tc tb"))  # clamp ties, a zero row
    @example((_table(ta=[1.0, 2.0], tb=[2.0, -1.0], tc=[-2.0, 1.0]), "ta", "tb"))  # one token a side
    @example((_table(ta=[1.0, 2.0], tb=[2.0, -1.0], tc=[-2.0, 1.0]), "tb tc", "ta"))  # exact tie at 0
    @settings(max_examples=200, deadline=None)
    def test_matches_the_double_loop_oracle(self, case):
        provider, pred, ref = case
        want = oracles.embed_match_f1_oracle(tokenize(pred), tokenize(ref), provider)
        assert embed_match_f1(pred, ref, provider) == want

    @given(SENTENCES, SENTENCES)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_oracle_on_hash_vectors(self, pred, ref):
        provider = HashEmbedding()
        want = oracles.embed_match_f1_oracle(tokenize(pred), tokenize(ref), provider)
        assert embed_match_f1(pred, ref, provider) == want


WORDS = "walk to the bathroom find soap wash hair dry off sit on sofa turn tv".split()


@st.composite
def _growing_calls(draw):
    """A sequence of (pred, ref) calls whose vocabulary widens call by call,
    so later calls bring tokens the earlier ones did not."""
    calls = []
    for i in range(draw(st.integers(1, 6))):
        side = st.lists(st.sampled_from(WORDS[: 3 + 3 * i]), min_size=1, max_size=8).map(" ".join)
        calls.append((draw(side), draw(side)))
    return calls


def _tensor_cost(pred, ref, provider):
    """WMD's ground cost through the (m, n, d) difference tensor."""
    vec_p = np.stack([embed(provider, t) for t in sorted(set(tokenize(pred)))])
    vec_r = np.stack([embed(provider, t) for t in sorted(set(tokenize(ref)))])
    diff = vec_p[:, None, :] - vec_r[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


# 16 * 3**2 bytes: the two pair tables of three rows, so most calls clear it
THREE_ROWS = 144


class TestTokenTable:
    """``embed_match_f1`` and ``wmd_transport`` read every token pair from
    ``embeddings.token_table``; each call stays equal to scoring its pair
    of texts directly, however the table grew or was cleared before."""

    @pytest.mark.parametrize("budget", [embeddings.MEMO_BUDGET_BYTES, THREE_ROWS], ids=["default", "clears"])
    @given(_growing_calls())
    @settings(max_examples=60, deadline=None)
    def test_a_sequence_of_calls_matches_the_oracles(self, budget, calls):
        provider = HashEmbedding(dim=32)
        with mock.patch.object(embeddings, "MEMO_BUDGET_BYTES", budget):
            for pred, ref in calls:
                want = oracles.embed_match_f1_oracle(tokenize(pred), tokenize(ref), provider)
                assert embed_match_f1(pred, ref, provider) == want
                cost, want = wmd_transport(pred, ref, provider).cost, _tensor_cost(pred, ref, provider)
                assert cost.shape == want.shape and cost.tobytes() == want.tobytes()

    def test_grows_by_doubling_and_shares_rows_until_then(self):
        provider = HashEmbedding(dim=8)
        tables = [embeddings.token_table(provider, WORDS[: i + 1]) for i in range(5)]
        assert [len(t.cos) for t in tables] == [1, 2, 4, 4, 8]
        assert tables[3].cos is tables[2].cos and tables[4].cos is not tables[3].cos
        assert [len(t.index) for t in tables] == [1, 2, 3, 4, 5]

    def test_cosines_after_a_growth_equal_cosine(self):
        # the table grows at the second, third and fifth token, so the
        # first tokens' rows are read from copies
        provider, words = HashEmbedding(dim=16), ["soap", "hair", "sofa", "tv", "walk"]
        for word in words:
            table = embeddings.token_table(provider, [word])
        assert len(table.cos) == 8
        rows = [table.index[w] for w in words]
        want = [[cosine(embed(provider, a), embed(provider, b)) for b in words] for a in words]
        assert table.cosines(provider, rows, rows).tobytes() == np.array(want).tobytes()

    def test_a_budget_clear_keeps_the_callers_tokens_alone(self, monkeypatch):
        provider = HashEmbedding(dim=32)
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", THREE_ROWS)
        assert list(embeddings.token_table(provider, ["soap", "hair", "sofa"]).index) == ["soap", "hair", "sofa"]
        table = embeddings.token_table(provider, ["tv", "hair"])
        assert set(table.index) == {"tv", "hair"}
        assert embed_match_f1("tv hair", "hair", provider) == oracles.embed_match_f1_oracle(
            ["tv", "hair"], ["hair"], provider
        )

    def test_a_second_insert_on_one_table_copies(self):
        # two threads holding one table: the first fills its spare rows in
        # place, so the second must copy, not overwrite them
        provider = HashEmbedding(dim=8)
        for token in ["soap", "hair", "sofa"]:
            base = embeddings.token_table(provider, [token])  # 3 rows of 4
        first = embeddings.token_table(provider, ["tv"])
        embeddings.vector_store(provider).token_table = base
        second = embeddings.token_table(provider, ["walk"])
        assert first.cos is base.cos and second.cos is not base.cos
        assert first.index["tv"] == second.index["walk"] == 3
        for table, token in [(first, "tv"), (second, "walk")]:
            vec = embed(provider, token)
            assert table.cosines(provider, [3], [1])[0, 0] == cosine(vec, embed(provider, "hair"))

    def test_each_unordered_pair_is_scored_by_one_cosine_call(self, monkeypatch):
        # the two sides share "hair" and "dry", so the block holds both
        # (hair, dry) and (dry, hair); each pair is scored once, in either order
        pred, ref = "wash hair dry hair", "dry off hair"
        provider = _circle(wash=0, hair=30, dry=70, off=140)
        want = [oracles.embed_match_f1_oracle(tokenize(p), tokenize(r), provider) for p, r in [(pred, ref), (ref, pred)]]
        calls, cosine_of_dot = [], embeddings.cosine_of_dot
        monkeypatch.setattr(embeddings, "cosine_of_dot", lambda *args: calls.append(args) or cosine_of_dot(*args))
        assert embed_match_f1(pred, ref, provider) == want[0]
        wmd_transport(pred, ref, provider)
        assert embed_match_f1(ref, pred, provider) == want[1]
        table = embeddings.token_table(provider, [])
        size = len(table.index)
        scored = {frozenset((table.tokens[i], table.tokens[j]))
                  for i, j in zip(*np.nonzero(~np.isnan(table.cos[:size, :size])))}
        assert len(calls) == len(scored) == 8
        assert scored == {frozenset((p, r)) for p in tokenize(pred) for r in tokenize(ref)}

    @given(_growing_calls())
    @settings(max_examples=40, deadline=None)
    def test_both_tables_hold_the_same_pairs_in_both_orders(self, calls):
        provider = HashEmbedding(dim=8)
        for pred, ref in calls:
            embed_match_f1(pred, ref, provider)
            wmd_transport(pred, ref, provider)
        table = embeddings.token_table(provider, [])
        size = len(table.index)
        filled = ~np.isnan(table.cos[:size, :size])
        assert (filled == filled.T).all()
        assert (filled == ~np.isnan(table.dist[:size, :size])).all()

    def test_the_vector_store_is_the_only_copy_of_a_token_vector(self):
        # a table of these few tokens never has 48 rows, so only a vector has 48 entries
        provider = HashEmbedding(dim=48)
        pairs = [(" ".join(WORDS[i:i + 4]), " ".join(WORDS[i + 2:i + 9:2])) for i in range(0, 12, 3)]
        for pred, ref in pairs:
            embed_match_f1(pred, ref, provider)
            wmd_transport(pred, ref, provider)
        tokens = {t for pair in pairs for text in pair for t in tokenize(text)}
        assert embeddings.memo_counts(provider)["misses"] == len(tokens)
        table = embeddings.token_table(provider, [])
        assert set(table.index) == tokens
        held = {name: value.shape for name, value in vars(table).items() if isinstance(value, np.ndarray)}
        assert held and not [name for name, shape in held.items() if 48 in shape], held

    @pytest.mark.parametrize("scorer", ["embed_match_f1", "wmd_transport"])
    def test_a_fill_whose_store_clears_matches_the_oracles(self, monkeypatch, scorer):
        # the store is full of other texts, so the fill's one embed_rows
        # call misses every token and clears the store to take them
        pred, ref = "wash hair dry", "dry off hair"
        reference = HashEmbedding(dim=32)
        want = {
            "embed_match_f1": oracles.embed_match_f1_oracle(tokenize(pred), tokenize(ref), reference),
            "wmd_transport": _tensor_cost(pred, ref, reference).tobytes(),
        }[scorer]
        provider = HashEmbedding(dim=32)
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", 4 * THREE_ROWS)  # a table of 6 tokens
        embeddings.embed_many(provider, ["one other text of many words", "and a second one like it"])
        clears = embeddings.memo_clears(provider)
        got = getattr(metrics, scorer)(pred, ref, provider)
        assert embeddings.memo_clears(provider) > clears
        assert (got if scorer == "embed_match_f1" else got.cost.tobytes()) == want

    def test_cost_is_a_fresh_array(self, hash_embedder):
        t = wmd_transport("find soap", "wash hair", hash_embedder)
        assert not np.shares_memory(t.cost, embeddings.token_table(hash_embedder, ["soap"]).dist)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_numpy_on_random_inputs(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(2, 30)
            xs = [rng.uniform(-5, 5) for _ in range(n)]
            ys = [rng.uniform(-5, 5) for _ in range(n)]
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            assert pearson(xs, ys) == pytest.approx(oracles.pearson_oracle(xs, ys), abs=1e-10)

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError, match="correlation undefined: an input has zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestReports:
    def _report(self, hash_embedder):
        samples = [
            ("0001", "walk to bathroom", "walk to the bathroom"),
            ("0002", "sit on sofa", "sit on sofa"),
        ]
        return evaluate_corpus(samples, hash_embedder)

    def test_identity_row_all_ones_and_zero_distance(self, hash_embedder):
        report = self._report(hash_embedder)
        row = next(r for r in report.per_sample if r["id"] == "0002")
        assert row["s_bleu"] == pytest.approx(1.0)
        assert row["rouge1_f1"] == pytest.approx(1.0)
        assert row["wmd_distance"] == 0.0
        assert row["wmd_similarity"] == 1.0
        assert row["embed_match_f1"] == pytest.approx(1.0, abs=1e-12)

    def test_means_are_column_averages(self, hash_embedder):
        report = self._report(hash_embedder)
        for m in METRIC_NAMES:
            want = sum(r[m] for r in report.per_sample) / report.count
            assert report.means[m] == pytest.approx(want, abs=1e-12)

    def test_to_json_survives_json(self, hash_embedder):
        report = self._report(hash_embedder)
        obj = json.loads(json.dumps(report.to_json()))
        assert obj["count"] == report.count
        assert obj["means"] == pytest.approx(report.means)
        assert obj["per_sample"] == [dict(row) for row in report.per_sample]

    def test_table_shape(self, hash_embedder):
        table = self._report(hash_embedder).to_table()
        lines = table.splitlines()
        assert lines[0].split() == ["id"] + list(METRIC_NAMES)
        assert lines[-1].startswith("mean")
        assert len(lines) == 2 + 2 + 1  # header, rule, two rows, mean

    def test_empty_corpus_rejected(self, hash_embedder):
        with pytest.raises(ValueError):
            evaluate_corpus([], hash_embedder)

    def test_unscorable_pair_is_recorded_not_raised(self, hash_embedder):
        report = evaluate_corpus(
            [("0001", "sit on sofa", "sit on sofa"), ("0002", "", "walk to sofa")],
            hash_embedder,
        )
        assert report.count == 1
        assert [r["id"] for r in report.per_sample] == ["0001"]
        assert report.means["wmd_distance"] == 0.0
        assert [r["id"] for r in report.failed] == ["0002"]
        assert json.loads(json.dumps(report.to_json()))["failed"] == [dict(r) for r in report.failed]

    def test_all_pairs_unscorable(self, hash_embedder):
        report = evaluate_corpus([("0001", "", "walk")], hash_embedder)
        assert (report.count, report.means, len(report.failed)) == (0, {}, 1)
        lines = report.to_table().splitlines()
        assert lines[0].split() == ["id"] + list(METRIC_NAMES)
        assert lines[-1].startswith("failed 0001: ValueError")

    def test_evaluate_pair_keys(self, hash_embedder):
        row = evaluate_pair("walk", "walk", hash_embedder)
        assert tuple(sorted(row)) == tuple(sorted(METRIC_NAMES))


def test_plan_text_joins_steps():
    assert plan_text(["walk to sofa", "sit on sofa"]) == "walk to sofa. sit on sofa"


def test_wmd_agrees_across_canonical_orders(hash_embedder):
    # The canonicalization swap must not change the value, only make the
    # two call orders produce the same bits.
    d1, _ = wmd("towel soap", "hair water", hash_embedder)
    d2, _ = wmd("hair water", "towel soap", hash_embedder)
    assert d1 == d2


def test_math_isfinite_everywhere(hash_embedder):
    for pred, ref in [("walk", "walk to"), ("a b c", "c b a"), ("x", "y")]:
        row = evaluate_pair(pred, ref, hash_embedder)
        assert all(math.isfinite(v) for v in row.values())


# Texts that recur across pairs: one-token sides, repeated n-grams, and
# texts that differ only in case and punctuation, so they share tokens.
READ_POOL = [
    "soap",
    "walk",
    "walk to the walk to the walk",
    "wash hair. wash hair. wash hair",
    "Wash hair, wash hair!",
    "find soap. wash hair. dry off",
    "dry off. wash hair. find soap",
    "sit on sofa and turn tv on",
    "the the the the",
    "walk to the bathroom. find soap. walk to the bathroom",
]


@st.composite
def _interleaved_pairs(draw):
    """(pred, ref) pairs over ``READ_POOL``, each followed at random by its swap."""
    pairs = []
    for pred, ref in draw(st.lists(st.tuples(st.sampled_from(READ_POOL), st.sampled_from(READ_POOL)), max_size=12)):
        pairs.append((pred, ref))
        if draw(st.booleans()):
            pairs.append((ref, pred))
    return pairs


class TestEachTextReadOnce:
    """The scorers read each text through a cache of the last four; a stale
    entry would show as a score off its oracle or an extra tokenize call."""

    @given(_interleaved_pairs())
    @settings(max_examples=100, deadline=None)
    def test_scores_in_sequence_equal_the_oracles(self, hash_embedder, pairs):
        for pred, ref in pairs:
            pred_tokens, ref_tokens = tokenize(pred), tokenize(ref)
            assert sentence_bleu(pred, ref) == oracles.bleu_oracle(pred_tokens, ref_tokens)
            assert rouge1_f1(pred, ref) == oracles.rouge1_oracle(pred_tokens, ref_tokens)
            want = oracles.embed_match_f1_oracle(pred_tokens, ref_tokens, hash_embedder)
            assert embed_match_f1(pred, ref, hash_embedder) == want

    @pytest.mark.parametrize(
        "pred,ref,solves",
        [
            ("find the towel in the linen closet. dry off", "walk to the bathroom. grab the towel", True),
            ("rinse the cup, then dry the cup", "dry the cup. then rinse the cup", False),  # one bag: no solve
        ],
        ids=["solve", "short-circuit"],
    )
    def test_a_pair_tokenizes_each_text_once(self, monkeypatch, hash_embedder, pred, ref, solves):
        for pair in [("walk", "soap"), ("sit", "dry")]:  # four texts: the cache holds no other
            evaluate_pair(*pair, hash_embedder)
        calls = []
        monkeypatch.setattr(metrics, "tokenize", lambda text: calls.append(text) or tokenize(text))
        row = evaluate_pair(pred, ref, hash_embedder)
        assert sorted(calls) == sorted([pred, ref])
        assert (row["wmd_distance"] > 0) == solves
        evaluate_pair(ref, pred, hash_embedder)
        assert len(calls) == 2

    def test_threads_sharing_one_provider_score_as_a_serial_run(self):
        rng = random.Random(11)
        pairs = [(rng.choice(READ_POOL), rng.choice(READ_POOL)) for _ in range(300)]
        alone, shared = HashEmbedding(), HashEmbedding()
        serial = [evaluate_pair(pred, ref, alone) for pred, ref in pairs]
        with ThreadPoolExecutor(max_workers=4) as executor:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = list(executor.map(lambda pair: evaluate_pair(*pair, shared), pairs))
            finally:
                sys.setswitchinterval(interval)
        bits = [[float.hex(row[m]) for m in METRIC_NAMES] for row in serial]
        assert [[float.hex(row[m]) for m in METRIC_NAMES] for row in got] == bits
