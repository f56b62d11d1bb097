"""Embedding providers: hash determinism, table lookup, the remote provider over loopback HTTP."""

import json
import pathlib
import sys
import tempfile
import threading
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from nsplan import embeddings
from nsplan.adaption import adapt_weights
from nsplan.admissible import AdmissibleSet, AdmissibleStep, translate
from nsplan.embeddings import (
    HashEmbedding,
    RemoteEmbedding,
    TableEmbedding,
    cosine,
    embed,
    memo_counts,
)
from nsplan.entities import tokenize
from nsplan.errors import InputError, TransportError
from nsplan.kg import KnowledgeGraph, Triplet
from nsplan.metrics import embed_match_f1, wmd_transport
from nsplan.planner import PlannerConfig

WORDS = st.text(alphabet="abcdefghij ", min_size=0, max_size=40)


def _table_file(tmp_path, rows, name="table.jsonl"):
    """Write ``rows`` ({text: vector}) as a JSONL embedding table."""
    path = tmp_path / name
    path.write_text("".join(json.dumps({"text": t, "vector": v}) + "\n" for t, v in rows.items()))
    return path


def _run_threads(threads, work):
    """Start ``threads`` threads of ``work(i)`` together with a tiny switch
    interval, so they interleave as often as the interpreter allows."""
    start = threading.Barrier(threads, timeout=30)

    def run(i):
        start.wait()
        work(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)


class TestHashEmbedding:
    def test_matches_independent_oracle(self):
        provider = HashEmbedding(dim=64, seed=3)
        for text in ["watch tv", "take a shower", "turn light off", "a", "", "café au lait", "ＴＶ", "rock'n'roll"]:
            got = embed(provider, text)
            want = np.asarray(oracles.hash_embedding_oracle(text, dim=64, seed=3))
            assert got.tobytes() == want.tobytes()

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_independent_oracle_on_any_text(self, text):
        want = np.asarray(oracles.hash_embedding_oracle(text, dim=64, seed=3))
        assert embed(HashEmbedding(dim=64, seed=3), text).tobytes() == want.tobytes()

    @given(WORDS)
    @settings(max_examples=60, deadline=None)
    def test_unit_norm_or_zero(self, text):
        vec = embed(HashEmbedding(dim=32), text)
        norm = np.linalg.norm(vec)
        assert norm == 0.0 or abs(norm - 1.0) < 1e-9

    def test_empty_text_is_zero_vector(self):
        vec = HashEmbedding(dim=16).embed("")
        assert vec.shape == (16,)
        assert not vec.any()

    def test_deterministic_across_instances(self):
        a = HashEmbedding(dim=128, seed=7).embed("wash your hair")
        b = HashEmbedding(dim=128, seed=7).embed("wash your hair")
        assert np.array_equal(a, b)

    def test_seed_changes_vectors(self):
        a = HashEmbedding(dim=128, seed=0).embed("wash your hair")
        b = HashEmbedding(dim=128, seed=1).embed("wash your hair")
        assert not np.allclose(a, b)

    def test_case_insensitive(self):
        provider = HashEmbedding(dim=64)
        assert np.array_equal(provider.embed("Watch TV"), provider.embed("watch tv"))

    def test_bigrams_make_order_matter(self):
        provider = HashEmbedding(dim=256)
        assert not np.allclose(provider.embed("light turn"), provider.embed("turn light"))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashEmbedding(dim=0)


class TestCosine:
    def test_identical_unit_vectors(self):
        v = embed(HashEmbedding(dim=64), "go to the bathroom")
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_defined_as_zero(self):
        z = np.zeros(8)
        v = np.ones(8)
        assert cosine(z, v) == 0.0
        assert cosine(v, z) == 0.0

    def test_clamped_to_unit_interval(self):
        a = np.array([1.0, 1e-17])
        b = np.array([1.0, -1e-17])
        assert -1.0 <= cosine(a, b) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, left, right):
        provider = HashEmbedding(dim=32)
        a, b = provider.embed(left), provider.embed(right)
        assert cosine(a, b) == pytest.approx(oracles.cosine_oracle(list(a), list(b)), abs=1e-12)


@st.composite
def _vector_pairs(draw):
    """Two dense random vectors of one dimension (1-299), each scaled by its
    own power of ten from 1e-3 to 1e3."""
    dim = draw(st.integers(1, 299))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rng.standard_normal(dim) * 10.0 ** draw(st.integers(-3, 3)) for _ in range(2)]


class _Rows:
    """A provider of fixed raw rows."""

    def __init__(self, rows):
        self.rows = rows
        self.dim = len(next(iter(rows.values())))

    def embed(self, text):
        return self.rows[text]


class TestSymmetry:
    """The token table scores each unordered pair once, so both of its
    scores must come out the same in either argument order, bit for bit."""

    @given(_vector_pairs())
    @settings(max_examples=200, deadline=None)
    def test_cosine_is_symmetric(self, pair):
        a, b = pair
        assert cosine(a, b).hex() == cosine(b, a).hex()

    @given(_vector_pairs())
    @settings(max_examples=200, deadline=None)
    def test_row_distance_is_symmetric(self, pair):
        # two fresh tables, so neither block is read back from the other
        providers = [_Rows({"a": pair[0], "b": pair[1]}) for _ in range(2)]
        first, second = (embeddings.token_table(provider, ["a", "b"]) for provider in providers)
        rows = [first.index["a"], first.index["b"]]
        forward = first.distances(providers[0], rows[:1], rows)
        backward = second.distances(providers[1], rows[::-1], rows[:1])
        assert forward.tobytes() == backward.T[:, ::-1].tobytes()
        assert (first.cosines(providers[0], rows[:1], rows[1:])[0, 0].hex()
                == second.cosines(providers[1], rows[1:], rows[:1])[0, 0].hex())


# entries that are tiny (subnormal too), huge, zero or -0.0, or plain
ODD_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-300, 1e300, -1.7e308]), st.floats(-1e3, 1e3))


@st.composite
def _odd_rows(draw):
    """1-6 table rows of one dimension (1-64) drawn from ``ODD_ENTRIES``."""
    dim = draw(st.integers(1, 64))
    return draw(st.lists(st.lists(ODD_ENTRIES, min_size=dim, max_size=dim), min_size=1, max_size=6))


class TestStoredNorms:
    """Adaption and the token table score a pair with ``cosine_of_dot``
    over norms that ``row_norms`` took once per vector; that must be
    ``cosine`` of the two vectors, bit for bit."""

    @given(_odd_rows())
    @settings(max_examples=200, deadline=None)
    def test_stored_norms_give_cosine_bit_for_bit(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            provider = TableEmbedding(_table_file(pathlib.Path(tmp), {f"t{i}": row for i, row in enumerate(rows)}))
        # "" is not in the table and embeds to zero through the fallback: a zero task vector
        vectors = embeddings.embed_many(provider, [*(f"t{i}" for i in range(len(rows))), ""])
        norms = embeddings.row_norms(vectors)
        assert norms.tobytes() == np.array([np.linalg.norm(v) for v in vectors]).tobytes()
        for a, na in zip(vectors, norms):
            for b, nb in zip(vectors, norms):
                assert embeddings.cosine_of_dot(np.dot(a, b), na, nb).hex() == cosine(a, b).hex()


class TestTableEmbedding:
    def test_loads_fixture_rows(self, fixture_path):
        provider = TableEmbedding(path=fixture_path("table_embeddings.jsonl"))
        assert provider.dim == 8
        vec = provider.embed("television")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
        assert provider.miss_count == 0

    def test_rows_are_normalized_by_embed(self, tmp_path):
        provider = TableEmbedding(_table_file(tmp_path, {"x": [3.0, 4.0]}))
        assert np.array_equal(provider.embed("x"), [3.0, 4.0])
        assert np.allclose(embed(provider, "x"), [0.6, 0.8])

    def test_miss_falls_back_to_hash_and_counts(self, tmp_path):
        provider = TableEmbedding(_table_file(tmp_path, {"x": [1.0, 0.0, 0.0, 0.0]}))
        want = HashEmbedding(dim=4).embed("unknown text")
        got = provider.embed("unknown text")
        assert np.array_equal(got, want)
        assert provider.miss_count == 1
        provider.embed("unknown text")
        assert provider.miss_count == 2

    def test_empty_table_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            TableEmbedding(path=empty)

    @pytest.mark.parametrize("row", ["[1, 2]", '"str"'], ids=["list", "string"])
    def test_row_that_is_not_an_object_is_a_bad_line(self, tmp_path, row):
        path = tmp_path / "table.jsonl"
        path.write_text('{"text": "a", "vector": [1.0, 0.0]}\n%s\n' % row)
        with pytest.raises(InputError) as err:
            TableEmbedding(path)
        assert (str(err.value), err.value.line_no) == (f"{path}, line 2: line is not a JSON object", 2)

    def test_bad_row_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "table.jsonl"
        path.write_text(json.dumps({"text": "a", "vector": [1.0, 0.0]}) + "\n" + json.dumps({"text": "b"}) + "\n")
        with pytest.raises(InputError) as err:
            TableEmbedding(path=path)
        assert err.value.line_no == 2
        assert f"{path}, line 2" in str(err.value) and "vector" in str(err.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_row_names_the_file_and_line(self, tmp_path, literal):
        path = tmp_path / "table.jsonl"
        path.write_text('{"text": "a", "vector": [1.0, 0.0]}\n{"text": "b", "vector": [1.0, %s]}\n' % literal)
        with pytest.raises(InputError) as err:
            TableEmbedding(path=path)
        assert err.value.line_no == 2
        assert f"{path}, line 2" in str(err.value) and "'b'" in str(err.value)

    @pytest.mark.parametrize(
        "vector", ['["3", true]', '["3", 1.0]', "[true, 1.0]", "[[1.0], [0.0]]", "[1%s, 1.0]" % ("0" * 400)],
        ids=["string-and-bool", "string", "bool", "nested", "int-past-float-range"],
    )
    def test_entry_that_is_not_a_number_is_a_bad_line(self, tmp_path, vector):
        path = tmp_path / "table.jsonl"
        path.write_text('{"text": "a", "vector": %s}\n' % vector)
        with pytest.raises(InputError) as err:
            TableEmbedding(path)
        assert err.value.line_no == 1
        assert str(err.value).startswith(f"{path}, line 1: ")

    @pytest.mark.parametrize(
        "rows, line, reason",
        [
            ({"a": []}, 1, "vector of 'a' is empty"),
            ({"a": [1.0], "b": [1.0, 0.0]}, 2, "vector of 'b' has 2 entries where the rows above have 1"),
        ],
        ids=["empty", "lengths-differ"],
    )
    def test_bad_dimension_names_the_file_and_line(self, tmp_path, rows, line, reason):
        path = _table_file(tmp_path, rows)
        with pytest.raises(InputError) as err:
            TableEmbedding(path)
        assert err.value.line_no == line
        assert str(err.value) == f"{path}, line {line}: {reason}"

    def test_embed_returns_copies(self, tmp_path):
        provider = TableEmbedding(_table_file(tmp_path, {"x": [1.0, 0.0], "zero": [0.0, 0.0]}))
        for text in ("x", "zero"):
            want = embed(provider, text)
            embed(provider, text)[0] = 99.0
            assert np.array_equal(embed(provider, text), want)

    def test_miss_counters_exact_under_threads(self, tmp_path):
        # --jobs > 1 shares one provider
        provider = TableEmbedding(_table_file(tmp_path, {"x": [1.0, 0.0]}))
        threads, per_thread = 8, 300

        def work(i):
            for j in range(per_thread):
                provider.embed(f"miss {i} {j % 50}")

        _run_threads(threads, work)
        assert provider.miss_count == threads * per_thread


class _Poisoned:
    """Hash vectors for every text but "towel", whose vector holds ``value``
    at ``position``."""

    def __init__(self, dim, position, value):
        self.dim = dim
        self._hash = HashEmbedding(dim=dim)
        self._bad = np.full(dim, dim**-0.5)
        self._bad[position] = value

    def embed(self, text):
        return self._bad.copy() if text == "towel" else self._hash.embed(text)


@st.composite
def _poisoned(draw):
    dim = draw(st.integers(1, 32))
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return _Poisoned(dim, draw(st.integers(0, dim - 1)), value)


class TestNonFiniteVectors:
    """A non-finite vector stops at ``embed`` on every path that scores it,
    instead of winning with cosine 1."""

    @given(_poisoned())
    @settings(max_examples=40, deadline=None)
    def test_every_scoring_path_raises(self, provider):
        with pytest.raises(ValueError, match="'towel'"):
            embed(provider, "towel")
        steps = [AdmissibleStep("find towel"), AdmissibleStep("wash hair")]
        with pytest.raises(ValueError):
            translate("towel", AdmissibleSet(steps), provider)
        with pytest.raises(ValueError):
            translate("wash hair", AdmissibleSet([*steps, AdmissibleStep("towel")]), provider)
        for tail, task in [("towel", "wash hair"), ("hair", "towel")]:
            with pytest.raises(ValueError):
                adapt_weights(KnowledgeGraph([Triplet("bathroom", "AtLocation", tail, 1.0)]), np.arange(1), task,
                              provider, PlannerConfig())
        embed_match_f1("find", "soap", provider)  # the token table exists before the failures
        with pytest.raises(ValueError):
            embed_match_f1("towel", "hair", provider)
        with pytest.raises(ValueError):
            embed_match_f1("hair", "towel", provider)
        # the failed calls left the token table as it was
        for pred, ref in [("hair", "wash hair"), ("find soap", "hair")]:
            want = oracles.embed_match_f1_oracle(tokenize(pred), tokenize(ref), provider)
            assert embed_match_f1(pred, ref, provider) == want


class TestRemoteEmbedding:
    def test_posts_expected_payload(self, loopback):
        seen = []

        def handler(payload):
            seen.append(payload)
            return 200, {"data": [{"embedding": [0.0, 2.0, 0.0]}]}

        provider = RemoteEmbedding(loopback.serve(handler, "/embed"), dim=3)
        vec = embed(provider, "watch tv")
        assert seen == [{"input": ["watch tv"]}]
        assert np.array_equal(vec, [0.0, 1.0, 0.0])

    def test_caches_by_exact_text(self, loopback):
        calls = []

        def handler(payload):
            calls.append(payload["input"][0])
            return 200, {"data": [{"embedding": [1.0, 0.0]}]}

        provider = RemoteEmbedding(loopback.serve(handler, "/embed"), dim=2)
        embed(provider, "a")
        embed(provider, "a")
        embed(provider, "b")
        assert calls == ["a", "b"]

    def test_malformed_body_raises_transport_error(self, loopback):
        provider = RemoteEmbedding(loopback.serve(lambda payload: (200, {"data": []}), "/embed"), dim=2)
        with pytest.raises(TransportError):
            provider.embed("x")

    @pytest.mark.parametrize(
        "embedding",
        [{"a": 1}, "abc", ["3", True], ["3", 1.0], [True, 1.0], [10**400, 1.0]],
        ids=["object", "string", "string-and-bool-entries", "string-entry", "bool-entry", "int-past-float-range"],
    )
    def test_non_list_embedding_is_a_transport_error_naming_the_endpoint(self, loopback, embedding):
        endpoint = loopback.serve(lambda payload: (200, {"data": [{"embedding": embedding}]}), "/embed")
        provider = RemoteEmbedding(endpoint, dim=2)
        with pytest.raises(TransportError, match="data\\[0\\].embedding") as err:
            embed(provider, "x")
        assert err.value.endpoint == endpoint

    def test_wrong_dimension_raises(self, loopback):
        provider = RemoteEmbedding(
            loopback.serve(lambda payload: (200, {"data": [{"embedding": [1.0, 0.0]}]}), "/embed"), dim=4
        )
        with pytest.raises(TransportError, match="dimension"):
            provider.embed("x")

    def test_retries_transient_status_then_succeeds(self, loopback, sleeps):
        attempts = []

        def handler(payload):
            attempts.append(1)
            if len(attempts) < 3:
                return 503, {}
            return 200, {"data": [{"embedding": [0.0, 1.0]}]}

        provider = RemoteEmbedding(loopback.serve(handler, "/embed"), dim=2)
        assert np.allclose(provider.embed("x"), [0.0, 1.0])
        assert len(attempts) == 3
        assert len(sleeps) == 2
        assert all(0.5 * 2**k <= d < 2**k for k, d in enumerate(sleeps))  # retry k+1: [0.5, 1) * 2**k s


class TestEmbedMemo:
    """``embed`` answers a repeated text from its per-provider memo with the
    bytes of the first result, in a fresh array."""

    @given(WORDS)
    @settings(max_examples=60, deadline=None)
    def test_repeat_is_bit_equal_to_first_and_to_the_oracle(self, text):
        provider = HashEmbedding(dim=32, seed=5)
        first, again = embed(provider, text), embed(provider, text)
        assert first.tobytes() == again.tobytes()
        assert again.tobytes() == np.array(oracles.hash_embedding_oracle(text, dim=32, seed=5)).tobytes()
        assert memo_counts(provider) == {"hits": 1, "misses": 1}

    def test_negative_zero_keeps_its_sign_on_a_hit(self, tmp_path):
        provider = TableEmbedding(_table_file(tmp_path, {"x": [-0.0, 1.0, 0.0]}))
        first, again = embed(provider, "x"), embed(provider, "x")
        assert memo_counts(provider)["hits"] == 1
        assert again.tobytes() == first.tobytes()
        assert list(np.signbit(again)) == [True, False, False]

    def test_empty_text_comes_back_as_zeros(self):
        provider = HashEmbedding(dim=8)
        for _ in range(2):
            vec = embed(provider, "")
            assert vec.tobytes() == np.zeros(8).tobytes()
        assert memo_counts(provider) == {"hits": 1, "misses": 1}

    def test_hit_is_a_fresh_array(self):
        provider = HashEmbedding(dim=16)
        want = embed(provider, "wash your hair")
        embed(provider, "wash your hair")[:] = 99.0
        again = embed(provider, "wash your hair")
        assert again is not want and again.tobytes() == want.tobytes()
        assert memo_counts(provider)["hits"] == 2

    def test_small_budget_clears_and_stays_bit_equal(self, monkeypatch):
        texts = [f"turn on light {i}" for i in range(20)]
        want = {t: embed(HashEmbedding(dim=16), t).tobytes() for t in texts}
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", 1500)  # a few hash entries
        provider = HashEmbedding(dim=16)
        for t in texts:
            assert embed(provider, t).tobytes() == want[t]
        assert embed(provider, texts[-1]).tobytes() == want[texts[-1]]
        assert memo_counts(provider) == {"hits": 1, "misses": 20}
        assert embed(provider, texts[0]).tobytes() == want[texts[0]]  # dropped by a clear
        assert memo_counts(provider) == {"hits": 1, "misses": 21}

    def test_provider_errors_are_counted_and_not_memoized(self, loopback):
        provider = RemoteEmbedding(loopback.serve(lambda payload: (200, {"data": []}), "/embed"), dim=2)
        for _ in range(2):
            with pytest.raises(TransportError):
                embed(provider, "x")
        assert memo_counts(provider) == {"hits": 0, "misses": 2}

    def test_counts_exact_under_threads(self, tmp_path):
        # --jobs > 1 shares one provider: every call is a hit or a miss, and
        # only a miss reaches the table's hash fallback
        provider = TableEmbedding(_table_file(tmp_path, {"x": [1.0, 0.0]}))
        threads, per_thread = 8, 300
        want = {j: embed(HashEmbedding(dim=2), f"miss {j}").tobytes() for j in range(50)}
        wrong = []

        def work(i):
            for j in range(per_thread):
                if embed(provider, f"miss {j % 50}").tobytes() != want[j % 50]:
                    wrong.append((i, j))

        _run_threads(threads, work)
        assert not wrong
        counts = memo_counts(provider)
        assert counts["hits"] + counts["misses"] == threads * per_thread
        assert 50 <= counts["misses"] == provider.miss_count


POOL = ["", "wash hair", "find soap", "turn on light", "towel", "a b c", "rinse"]


class _FailsAfter:
    """Hash vectors for the first ``calls_left`` texts asked for, then a
    TransportError; ``calls`` counts every call."""

    def __init__(self, dim, calls_left):
        self.dim = dim
        self._hash = HashEmbedding(dim=dim)
        self.calls_left = calls_left
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        if self.calls > self.calls_left:
            raise TransportError("embedding service down", endpoint="http://embed")
        return self._hash.embed(text)


class TestEmbedMany:
    """Each row of ``embed_many`` is bit-equal to ``embed`` of its text, and
    the memo counts move as one ``embed`` call per text would."""

    @given(
        st.sampled_from(["hits", "misses", "mix"]),
        st.lists(st.sampled_from(POOL), max_size=12),
        st.sets(st.sampled_from(POOL)),
    )
    @example("mix", ["", "towel", "", "rinse", "towel", "rinse"], {"towel"})  # repeats, and "" embeds to zero
    @settings(max_examples=80, deadline=None)
    def test_rows_and_counts_match_per_text_embed(self, mode, texts, warm):
        warm = {"hits": set(texts), "misses": set(), "mix": warm}[mode]
        batched, serial = HashEmbedding(dim=16, seed=2), HashEmbedding(dim=16, seed=2)
        for provider in (batched, serial):
            for text in sorted(warm):
                embed(provider, text)
        got = embeddings.embed_many(batched, texts)
        want = [embed(serial, text).tobytes() for text in texts]
        assert got.shape == (len(texts), 16)
        assert [row.tobytes() for row in got] == want
        assert memo_counts(batched) == memo_counts(serial)

    @pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
    def test_negative_zero_keeps_its_sign(self, tmp_path, warm):
        provider = TableEmbedding(_table_file(tmp_path, {"x": [-0.0, 1.0, 0.0], "y": [0.0, 0.0, 2.0]}))
        if warm:
            embed(provider, "x")
        got = embeddings.embed_many(provider, ["y", "x", "x"])
        assert list(np.signbit(got[1])) == list(np.signbit(got[2])) == [True, False, False]
        assert got[1].tobytes() == embed(provider, "x").tobytes()

    def test_memo_cleared_mid_batch(self, monkeypatch):
        texts = [f"turn on light {i}" for i in range(20)]
        want = [embed(HashEmbedding(dim=16), t).tobytes() for t in texts]
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", 1500)  # a few hash entries
        provider = HashEmbedding(dim=16)
        for t in texts[::3]:
            embed(provider, t)
        before = memo_counts(provider)
        got = embeddings.embed_many(provider, texts + texts[::-1])
        assert [row.tobytes() for row in got] == want + want[::-1]
        after = memo_counts(provider)
        assert after["hits"] + after["misses"] == before["hits"] + before["misses"] + 2 * len(texts)

    def test_failing_provider_counts_only_the_calls_made(self):
        provider = _FailsAfter(dim=8, calls_left=3)
        embed(provider, "towel")
        with pytest.raises(TransportError):
            embeddings.embed_many(provider, ["towel", "wash hair", "rinse", "find soap", "a b c"])
        assert provider.calls == 4  # "find soap" failed
        assert memo_counts(provider) == {"hits": 0, "misses": 4}
        # what was embedded stays in the memo; the rest is asked for again
        provider.calls_left = 10
        got = embeddings.embed_many(provider, ["towel", "wash hair", "rinse", "find soap", "a b c"])
        assert provider.calls == 6
        assert memo_counts(provider) == {"hits": 3, "misses": 6}
        reference = HashEmbedding(dim=8)
        assert [row.tobytes() for row in got] == [
            embed(reference, t).tobytes() for t in ["towel", "wash hair", "rinse", "find soap", "a b c"]
        ]

    def test_counts_exact_under_threads(self, tmp_path):
        provider = TableEmbedding(_table_file(tmp_path, {"x": [1.0, 0.0]}))
        threads, batches = 8, 40
        want = {j: embed(HashEmbedding(dim=2), f"miss {j}").tobytes() for j in range(50)}
        wrong = []

        def work(i):
            for b in range(batches):
                js = [(i * 7 + b * 3 + k) % 50 for k in range(5)]
                rows = embeddings.embed_many(provider, [f"miss {j}" for j in js])
                if [row.tobytes() for row in rows] != [want[j] for j in js]:
                    wrong.append((i, b))

        _run_threads(threads, work)
        assert not wrong
        counts = memo_counts(provider)
        assert counts["hits"] + counts["misses"] == threads * batches * 5
        assert 50 <= counts["misses"] == provider.miss_count


class TestTokenTableThreads:
    def test_threads_growing_one_table_read_only_their_own_rows(self):
        # threads that bring new tokens at once each publish a whole table;
        # none may write into rows another thread's table already uses
        words = [a + b for a in "bcdfg" for b in "aeiou"]
        calls = [
            [(f"{words[(i * 3 + j) % 25]} {words[j]}", f"{words[(j * 7 + i) % 25]} {words[i]}") for j in range(25)]
            for i in range(8)
        ]
        reference = HashEmbedding(dim=16)
        want = {
            (pred, ref): (
                oracles.embed_match_f1_oracle(tokenize(pred), tokenize(ref), reference),
                wmd_transport(pred, ref, reference).cost.tobytes(),
            )
            for thread_calls in calls
            for pred, ref in thread_calls
        }
        provider, wrong = HashEmbedding(dim=16), []

        def work(i):
            for pred, ref in calls[i]:
                got = (embed_match_f1(pred, ref, provider), wmd_transport(pred, ref, provider).cost.tobytes())
                if got != want[pred, ref]:
                    wrong.append((pred, ref))

        _run_threads(len(calls), work)
        assert not wrong


class TestEmbedContract:
    def test_checks_shape(self):
        class Bad:
            dim = 4

            def embed(self, text):
                return np.ones(3)

        with pytest.raises(ValueError, match="shape"):
            embed(Bad(), "x")

    @pytest.mark.parametrize("raw", [[3.0, 4.0], [0.6 * (1 + 9e-10), 0.8 * (1 + 9e-10)]], ids=["sloppy", "near-unit"])
    def test_divides_every_vector_by_its_norm(self, raw):
        class Fixed:
            dim = 2

            def embed(self, text):
                return raw

        assert np.array_equal(embed(Fixed(), "x"), np.asarray(raw) / np.linalg.norm(raw))

    def test_passes_through_zero(self):
        assert not embed(HashEmbedding(dim=8), "").any()

    @given(
        st.one_of(
            st.lists(st.integers(-1000, 1000), min_size=1, max_size=64).filter(any),
            st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64).filter(lambda v: max(map(abs, v)) >= 1e-3),
        ),
        st.integers(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_vector_of_trusted_norm_is_divided_by_its_norm_alone(self, base, k):
        vec = np.array(base, dtype=np.float64) * 10.0**k
        got = embed(_Rows({"x": vec}), "x")
        assert got.tobytes() == (vec / np.linalg.norm(vec)).tobytes()

    def test_tiny_entries_normalize_to_norm_one(self):
        provider = _Rows({"tiny": np.array([3e-160, 1e-160]), "below": np.array([1e-170, 0.0]),
                          "left": np.array([-1.0, 0.0]), "up": np.array([0.0, 1.0])})
        tiny = embed(provider, "tiny")
        assert abs(np.linalg.norm(tiny) - 1.0) <= 1e-15
        assert embed(provider, "below").tolist() == [1.0, 0.0]  # every square underflows to zero
        # against [-1, 0] the matrix-product score sits below the exact cosine
        # by as much as the norm is off: the shortlists must still hold the scan's results
        cos = cosine(tiny, embed(provider, "left"))
        for threshold in (cos, np.nextafter(cos, 2.0)):
            cfg = PlannerConfig(edge_threshold=0.0, cos_keep_threshold=threshold)
            graph = KnowledgeGraph([Triplet("x", "AtLocation", "tiny", 2.0), Triplet("x", "AtLocation", "up", 2.0)])
            adapted = adapt_weights(graph, np.arange(graph.edge_count), "left", provider, cfg)
            got = [(t.tail, t.adapted_weight.hex()) for t in adapted]
            want = oracles.adapt_oracle([graph.triplet(r) for r in range(2)], "left", provider, 0.0, threshold)
            assert got == [(tail, adapted.hex()) for _, _, tail, _, adapted in want]
        texts, view = ["tiny", "up"], types.SimpleNamespace(vector=lambda text: embed(provider, text))
        matrix = np.array([embed(provider, t) for t in texts])
        queries = ("left", "tiny", "up")
        found = embeddings.best_rows(np.array([embed(provider, q) for q in queries]), matrix, texts)
        for query, (index, best) in zip(queries, found):
            want_text, want_cos = oracles.translate_scan_oracle(query, texts, view)
            assert texts[index] == want_text and best.hex() == want_cos.hex()

    def test_huge_entries_are_scaled_not_refused(self):
        provider = _Rows({"huge": np.array([1e200, 1e200]), "one": np.array([1.0, 1.0])})
        got = embed(provider, "huge")
        assert np.allclose(got, [2**-0.5, 2**-0.5], rtol=0.0, atol=2**-53)  # 1 / sqrt(2) rounds one ulp below 2**-0.5
        assert got.tobytes() == embed(provider, "one").tobytes()

    @pytest.mark.parametrize("bad,norm", [(np.inf, "inf"), (np.nan, "nan")])
    def test_a_non_finite_entry_is_refused_as_before(self, bad, norm):
        with pytest.raises(ValueError, match=f"^provider returned a vector of norm {norm} for 'x'$"):
            embed(_Rows({"x": np.array([1e200, bad])}), "x")


def test_table_fixture_rows_are_json_objects(fixture_path):
    with open(fixture_path("table_embeddings.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    assert {"text", "vector"} <= set(rows[0])
    assert len(rows) == 8
