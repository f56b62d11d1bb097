"""Embedding providers: hash determinism, table lookup, the remote provider over loopback HTTP."""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
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
from nsplan.errors import InputError, TransportError
from nsplan.kg import Triplet
from nsplan.metrics import embed_match_f1

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
        for text in ["watch tv", "take a shower", "turn light off", "a", ""]:
            got = embed(provider, text)
            want = np.asarray(oracles.hash_embedding_oracle(text, dim=64, seed=3))
            assert np.allclose(got, want, atol=1e-12)

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


def _unit(vec):
    """``vec`` as ``embed`` hands it out: divided by its norm, or zero."""
    vec = np.asarray(vec, dtype=np.float64)
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else np.zeros_like(vec)


def _scan(queries, rows):
    return [max(cosine(q, r) for r in rows) for q in queries]


@st.composite
def _query_and_rows(draw):
    """Unit or zero queries and rows: dense, zero, duplicate, negated, and
    near-copies of a query a few ulps apart, so the best is often tied."""
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = [_unit(rng.standard_normal(dim)) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        queries.append(np.zeros(dim))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["dense", "zero", "duplicate", "negated", "near"]))
        q = queries[draw(st.integers(0, len(queries) - 1))]
        if kind == "dense":
            rows.append(_unit(rng.standard_normal(dim)))
        elif kind == "zero":
            rows.append(np.zeros(dim))
        elif kind == "duplicate" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
        elif kind == "negated":
            rows.append(-q)
        else:
            near = q.copy()
            for _ in range(draw(st.integers(0, 3))):
                i = draw(st.integers(0, dim - 1))
                near[i] = np.nextafter(near[i], draw(st.sampled_from([-np.inf, np.inf])))
            rows.append(_unit(near))
    return np.stack(queries), np.stack(rows)


class TestBestCosines:
    def test_zero_query_and_zero_row_score_zero(self):
        queries = np.array([[0.0, 0.0], [-1.0, 0.0]])
        rows = np.array([[0.0, 0.0], [1.0, 0.0]])
        got = embeddings.best_cosines(queries, rows)
        assert got == [0.0, 0.0] and got == _scan(queries, rows)

    def test_ties_at_the_clamp(self):
        q = _unit([1.0] * 5)
        same = np.stack([_unit(q * s) for s in (3.0, 1.0, 7.0)])
        # each row's raw cosine with q lies just beyond 1, where the matmul's lies below
        assert all(np.dot(q, r) / (np.linalg.norm(q) * np.linalg.norm(r)) > 1.0 for r in same)
        assert (same @ q < 1.0).any()
        got = embeddings.best_cosines(np.stack([q, -q]), same)
        assert got == [1.0, -1.0] and got == _scan([q, -q], same)
        assert embeddings.best_cosines(q[None], -same) == [-1.0]

    def test_duplicate_rows(self):
        rows = np.stack([_unit([0.2, 0.9]), _unit([-1.0, 0.3]), _unit([0.2, 0.9]), _unit([0.2, 0.9])])
        queries = np.stack([_unit([0.3, 1.0]), _unit([-0.9, 0.4])])
        assert embeddings.best_cosines(queries, rows) == _scan(queries, rows)

    def test_rescores_query_then_row(self, monkeypatch):
        queries = np.stack([_unit([1.0, 0.0, 2.0]), _unit([0.0, -1.0, 1.0])])
        rows = np.stack([_unit([1.0, 0.1, 2.0]), np.zeros(3), _unit([0.5, -1.0, 0.5])])
        calls, real = [], embeddings._cosine

        def recording(a, b, na, nb):
            calls.append((a, b, na, nb))
            return real(a, b, na, nb)

        monkeypatch.setattr(embeddings, "_cosine", recording)
        embeddings.best_cosines(queries, rows)
        assert calls
        for a, b, na, nb in calls:
            assert any(np.array_equal(a, q) for q in queries)
            assert any(np.array_equal(b, r) for r in rows)
            assert (na, nb) == (np.linalg.norm(a), np.linalg.norm(b))

    def test_first_maximum_in_column_order_wins(self, monkeypatch):
        # as in max(): of the equal scores -0.0, 0.0 and 0.0, the first is kept
        signs = iter([-0.0, 0.0, 0.0])
        monkeypatch.setattr(embeddings, "_cosine", lambda a, b, na, nb: next(signs))
        assert embeddings.best_cosines(np.zeros((1, 2)), np.zeros((3, 2)))[0].hex() == (-0.0).hex()

    def test_near_ties_keep_the_scan_maximum(self):
        # rows a hair from the query, where the matmul and cosine often rank
        # the top two apart: about 1 case in 100 needs the margin
        rng = np.random.default_rng(7)
        for _ in range(2000):
            dim = int(rng.integers(2, 40))
            q = _unit(rng.standard_normal(dim))
            rows = np.stack([_unit(q + 1e-9 * rng.standard_normal(dim)) for _ in range(4)])
            assert embeddings.best_cosines(q[None], rows) == _scan([q], rows)

    @given(_query_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_a_row_scan(self, case):
        queries, rows = case
        got = embeddings.best_cosines(queries, rows)
        want = _scan(queries, rows)
        assert [x.hex() for x in got] == [x.hex() for x in want]


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
        with pytest.raises(ValueError):
            adapt_weights((Triplet("bathroom", "AtLocation", "towel"),), "wash hair", provider)
        with pytest.raises(ValueError):
            adapt_weights((Triplet("bathroom", "AtLocation", "hair"),), "towel", provider)
        with pytest.raises(ValueError):
            embed_match_f1("towel", "hair", provider)
        with pytest.raises(ValueError):
            embed_match_f1("hair", "towel", provider)


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


def test_table_fixture_rows_are_json_objects(fixture_path):
    with open(fixture_path("table_embeddings.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    assert {"text", "vector"} <= set(rows[0])
    assert len(rows) == 8
