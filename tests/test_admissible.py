"""Closed-world translation: closure, argmax oracle, tie breaking."""

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsplan.admissible import (
    AdmissibleSet,
    AdmissibleStep,
    build_admissible_set,
    load_admissible_set,
    translate,
    translate_prompt,
)
from nsplan import embeddings
from nsplan.embeddings import HashEmbedding, best_rows, embed
from nsplan.errors import ConfigError


class _OracleView:
    """Adapter exposing the .vector protocol the scan oracle expects."""

    def __init__(self, provider):
        self._provider = provider

    def vector(self, text):
        return embed(self._provider, text)


FREE_TEXT = st.text(alphabet="abcdefgh ", min_size=0, max_size=30)


class _Table:
    """Table-style provider: an exact row for every text it is asked about.
    Its ``.vector`` hands out the raw row, as a scan oracle view."""

    def __init__(self, rows):
        self.rows = rows
        self.dim = len(next(iter(rows.values())))

    def embed(self, text):
        return self.rows[text]

    vector = embed


def _assert_matches_scan_oracle(text, steps, provider):
    """Same step, and the same cosine bit for bit, as the per-row scan."""
    got_step, got_cos = translate(text, steps, provider)
    want_text, want_cos = oracles.translate_scan_oracle(
        text, [s.text for s in steps], _OracleView(provider)
    )
    assert got_step.text == want_text
    assert got_cos.hex() == want_cos.hex()


def _assert_best_rows_match_scan(queries, texts, table):
    """``best_rows`` over the raw rows, with no ``embed`` in between, picks
    the scan's row for each query with the same cosine bit for bit."""
    matrix = np.array([table.rows[t] for t in texts])
    found = best_rows(np.array([table.rows[q] for q in queries]), matrix, texts)
    assert len(found) == len(queries)
    for query, (index, cos) in zip(queries, found):
        want_text, want_cos = oracles.translate_scan_oracle(query, texts, table)
        assert texts[index] == want_text
        assert cos.hex() == want_cos.hex()
    return found


@st.composite
def _tables(draw):
    """A table provider over up to 480 steps and a query ("?") whose rows
    are a few ulps apart from one unit vector, so many scores tie to within
    rounding. Some draws scale rows by up to 1 +- 9e-10 (``embed`` divides
    that out; fed raw to ``best_rows``, cosines beyond +-1 clamp and tie),
    repeat rows under other texts, or zero rows or the query."""
    n = draw(st.sampled_from([1, 2, 3, 8, 40, 480]))
    dim = draw(st.integers(2, 24))
    words = st.text(alphabet="abc", min_size=1, max_size=6)
    texts = draw(st.lists(words, min_size=n, max_size=n, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    rows = {}
    for text in texts + ["?"]:
        ulps = rng.integers(-3, 4, size=dim) if draw(st.booleans()) else np.zeros(dim)
        scale = 1 + rng.integers(-9, 10) * 1e-10 if draw(st.booleans()) else 1.0
        rows[text] = (base + ulps * np.spacing(base)) * scale
    for text in draw(st.lists(st.sampled_from(texts), max_size=4)):
        rows[text] = rows[draw(st.sampled_from(texts))].copy()  # a duplicate vector
    for text in draw(st.lists(st.sampled_from(texts + ["?"]), max_size=3)):
        rows[text] = np.zeros(dim)
    if draw(st.booleans()):
        rows["?"] = -rows["?"]  # every cosine near -1
    return texts, _Table(rows)


class TestAdmissibleSet:
    def test_deduplicates_preserving_order(self):
        s = AdmissibleSet(
            [AdmissibleStep("walk"), AdmissibleStep("sit"), AdmissibleStep("walk")]
        )
        assert [x.text for x in s] == ["walk", "sit"]
        assert len(s) == 2

    def test_contains(self):
        s = AdmissibleSet([AdmissibleStep("walk to bathroom")])
        assert "walk to bathroom" in s
        assert "fly to mars" not in s

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            AdmissibleSet([])

    def test_empty_step_text_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleStep("")

    def test_vectors_cached_per_provider(self, hash_embedder):
        s = AdmissibleSet([AdmissibleStep("walk"), AdmissibleStep("sit")])
        first = s.vectors(hash_embedder)
        assert s.vectors(hash_embedder) is first
        assert first.shape == (2, hash_embedder.dim) and not first.flags.writeable
        assert np.array_equal(first[1], embed(hash_embedder, "sit"))
        other = HashEmbedding(dim=hash_embedder.dim, seed=99)
        assert s.vectors(other) is not first

    def test_product_construction(self):
        s = build_admissible_set(
            ["walk to", "find"],
            ["sofa", "tv"],
            templates={"find": "{action} the {object}"},
        )
        texts = {x.text for x in s}
        assert texts == {"walk to sofa", "walk to tv", "find the sofa", "find the tv"}
        assert s.objects == ("sofa", "tv")

    def test_product_needs_both_axes(self):
        with pytest.raises(ConfigError):
            build_admissible_set([], ["sofa"])

    def test_load_flat_steps_file(self, tmp_path):
        path = tmp_path / "adm.json"
        path.write_text(json.dumps({"steps": ["soap up", "dry off"]}))
        s = load_admissible_set(path)
        assert [x.text for x in s] == ["soap up", "dry off"]
        assert s.objects == ()

    @pytest.mark.parametrize(
        "document",
        [
            '{"steps": "abc"}',
            '{"steps": [1, 2]}',
            '{"steps": ["soap up", ""]}',
            '["soap up"]',
            '{"actions": "walk", "objects": ["sofa"]}',
            '{"actions": ["walk"], "objects": [3]}',
            '{"actions": ["walk"], "objects": ["sofa"], "templates": ["{action}"]}',
            '{"actions": ["walk"], "objects": ["sofa"], "templates": {"walk": 1}}',
            '{"objects": ["sofa"]}',
            '{"steps": ["soap up"',
            '{"actions": ["walk"], "objects": ["sofa"], "templates": {"walk": "{foo} {object}"}}',
            '{"actions": ["walk"], "objects": ["sofa"], "templates": {"walk": "{action"}}',
            '{"actions": ["walk"], "objects": ["sofa"], "templates": {"walk": "{0} {object}"}}',
            '{"steps": []}',
        ],
    )
    def test_load_rejects_a_bad_document(self, tmp_path, document):
        path = tmp_path / "adm.json"
        path.write_text(document)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_admissible_set(path)

    @pytest.mark.parametrize("template", ["{foo} {object}", "{action", "{object.x}", ""])
    def test_bad_template_is_a_config_error_naming_action_and_template(self, template):
        with pytest.raises(ConfigError) as err:
            build_admissible_set(["walk"], ["sofa"], {"walk": template})
        assert "'walk'" in str(err.value) and repr(template) in str(err.value)

    def test_load_household_fixture(self, household_admissible):
        assert len(household_admissible) == 16 * 20
        assert "walk to bedroom" in household_admissible


class TestTranslate:
    def test_member_maps_to_itself(self, household_admissible, hash_embedder):
        step, cos = translate("walk to bedroom", household_admissible, hash_embedder)
        assert step.text == "walk to bedroom"
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_output_always_in_set(self, household_admissible, hash_embedder):
        for text in ["launch the rocket", "", "zzz qqq", "watch television"]:
            step, _ = translate(text, household_admissible, hash_embedder)
            assert step.text in household_admissible

    @given(FREE_TEXT)
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_scan_oracle(self, text):
        provider = HashEmbedding(dim=32)
        steps = AdmissibleSet(
            AdmissibleStep(t)
            for t in ["walk to sofa", "sit on sofa", "watch tv", "find remote", "stand up"]
        )
        got_step, got_cos = translate(text, steps, provider)
        want_text, want_cos = oracles.translate_scan_oracle(
            text, [s.text for s in steps], _OracleView(provider)
        )
        assert got_step.text == want_text
        assert got_cos == pytest.approx(want_cos, abs=0.0)

    @given(_tables())
    @settings(max_examples=150, deadline=None)
    def test_near_ties_zeros_and_duplicates_match_the_scan_oracle(self, table):
        texts, provider = table
        steps = AdmissibleSet(AdmissibleStep(t) for t in texts)
        _assert_matches_scan_oracle("?", steps, provider)
        _assert_matches_scan_oracle(texts[-1], steps, provider)

    @given(_tables())
    @settings(max_examples=150, deadline=None)
    def test_best_rows_on_raw_rows_matches_the_scan_oracle(self, table):
        texts, provider = table
        _assert_best_rows_match_scan(["?", texts[-1], "?"], texts, provider)

    @pytest.mark.parametrize(
        "sign, scale_a, scale_b", [(1.0, 1 - 8e-10, 1 + 9e-10), (-1.0, 1 + 9e-10, 1 - 8e-10)]
    )
    def test_cosines_beyond_one_clamp_and_tie(self, sign, scale_a, scale_b):
        # rows of norm 1 +- 9e-10, inside best_rows' premise; both raw
        # cosines lie beyond +-1, 1.7e-9 apart, with "b" the larger:
        # clamped, they tie and "a" wins
        u = np.full(4, 0.5)
        provider = _Table({"?": u * (1 + 9e-10), "a": sign * scale_a * u, "b": sign * scale_b * u})
        assert _assert_best_rows_match_scan(["?"], ["b", "a"], provider) == [(1, sign)]

    def test_ties_break_lexicographically(self):
        class Constant:
            dim = 2

            def embed(self, text):
                return [1.0, 0.0]

        steps = AdmissibleSet([AdmissibleStep("zeta"), AdmissibleStep("alpha")])
        step, cos = translate("anything", steps, Constant())
        assert step.text == "alpha"
        assert cos == pytest.approx(1.0)

    def test_zero_query_vector_gets_cosine_zero(self, hash_embedder):
        steps = AdmissibleSet([AdmissibleStep("b step"), AdmissibleStep("a step")])
        step, cos = translate("", steps, hash_embedder)
        assert cos == 0.0
        assert step.text == "a step"  # all tie at 0, lexicographic


class TestTranslatePrompt:
    def test_collapses_consecutive_duplicates_only(self):
        class TwoBuckets:
            dim = 2

            def embed(self, text):
                return [1.0, 0.0] if "a" in text else [0.0, 1.0]

        steps = AdmissibleSet([AdmissibleStep("alpha"), AdmissibleStep("zoom")])
        # 'a'-texts all map to "alpha"; the far-apart repeat survives.
        out = translate_prompt(("aa", "ab", "xx", "ac"), steps, TwoBuckets())
        assert out == ("alpha", "zoom", "alpha")

    def test_empty_prompt(self, household_admissible, hash_embedder):
        out = translate_prompt((), household_admissible, hash_embedder)
        assert out == ()

    def test_every_line_admissible(self, household_admissible, hash_embedder):
        prompt = ("turn on the water", "wash your hair", "dry off")
        out = translate_prompt(prompt, household_admissible, hash_embedder)
        assert all(line in household_admissible for line in out)


def _collapsed(texts):
    """``translate_prompt``'s collapse of consecutive duplicates."""
    return tuple(t for i, t in enumerate(texts) if i == 0 or texts[i - 1] != t)


def _oracle(queries, texts, rows):
    """The scan oracle composed line by line, over a provider of its own so
    that its ``embed`` calls leave the provider under test cold."""
    view = _OracleView(_Table(rows))
    return [oracles.translate_scan_oracle(q, texts, view) for q in queries]


def _assert_translations_match(queries, steps, provider, want):
    for query, (want_text, want_cos) in zip(queries, want):
        step, cos = translate(query, steps, provider)
        assert (step.text, cos.hex()) == (want_text, want_cos.hex())


class TestTranslationMemo:
    """The memo keeps ``translate`` and ``translate_prompt`` bit-equal to
    the scan oracle, cold or warm, per provider, and counts every text."""

    @given(_tables(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_cold_warm_and_repeated_texts_match_the_scan_oracle(self, table, data):
        texts, provider = table
        steps = AdmissibleSet(AdmissibleStep(t) for t in texts)
        queries = data.draw(st.lists(st.sampled_from(texts + ["?"]), max_size=12), label="queries")
        want = _oracle(queries, texts, provider.rows)
        if data.draw(st.booleans(), label="prompt first"):
            assert translate_prompt(queries, steps, provider) == _collapsed([t for t, _ in want])
            _assert_translations_match(queries, steps, provider, want)
        else:
            _assert_translations_match(queries, steps, provider, want)
            assert translate_prompt(queries, steps, provider) == _collapsed([t for t, _ in want])
        _assert_translations_match(queries, steps, provider, want)  # warm
        counts = steps.memo_counts(provider)
        assert counts["misses"] == len(set(queries))
        assert counts["hits"] + counts["misses"] == 3 * len(queries)

    @given(_tables(), st.lists(st.integers(0, 5), min_size=1, max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_alternating_providers_match_the_scan_oracle(self, table, picks):
        # the second provider gives each text the row of another, so the
        # same text mostly translates differently under the two
        texts, first = table
        second = _Table({**dict(zip(texts, [first.rows[t] for t in reversed(texts)])), "?": first.rows["?"]})
        steps = AdmissibleSet(AdmissibleStep(t) for t in texts)
        queries = (texts[-1], "?", texts[0])
        want = {p: _oracle(queries, texts, p.rows) for p in (first, second)}
        for pick in picks:
            provider = (first, second)[pick % 2]
            if pick < 2:
                _assert_translations_match(queries, steps, provider, want[provider])
            else:
                assert translate_prompt(queries, steps, provider) == _collapsed([t for t, _ in want[provider]])
            assert steps.memo_counts((second, first)[pick % 2]) == {"hits": 0, "misses": 0}

    def test_counts_exact_under_threads(self):
        steps = build_admissible_set(["walk to", "find", "grab"], ["sofa", "tv", "soap", "towel"])
        provider = HashEmbedding(dim=16)
        pool = [f"go {a} the {b}" for a in ("to", "find", "get", "use", "near") for b in ("sofa", "tv", "soap", "towel")]
        serial = AdmissibleSet(list(steps))
        want = {text: translate(text, serial, HashEmbedding(dim=16)) for text in pool}
        jobs, per_job = 8, 60

        def work(i):
            got = []
            for j in range(per_job):
                lines = [pool[(i * 7 + j * k) % len(pool)] for k in range(1, 4)]
                if j % 2:
                    got.append(translate_prompt(lines, steps, provider) == _collapsed([want[t][0].text for t in lines]))
                else:
                    got.extend(translate(t, steps, provider) == want[t] for t in lines)
            return all(got)

        with ThreadPoolExecutor(max_workers=4) as executor:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                assert all(executor.map(work, range(jobs)))
            finally:
                sys.setswitchinterval(interval)
        counts = steps.memo_counts(provider)
        assert counts["hits"] + counts["misses"] == jobs * per_job * 3
        # each worker thread misses a text at most once: its own insert keeps it
        assert len(pool) <= counts["misses"] <= 4 * len(pool)

    def test_memo_is_bounded_and_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", 600)  # a few entries
        steps = build_admissible_set(["walk to", "find"], ["sofa", "tv", "soap"])
        provider = HashEmbedding(dim=16)
        lines = [f"walk to the {w} {i}" for i in range(10) for w in ("sofa", "tv")]
        want = _collapsed([translate(t, AdmissibleSet(list(steps)), HashEmbedding(dim=16))[0].text for t in lines])
        for _ in range(3):
            assert translate_prompt(lines, steps, provider) == want
            memo = steps._grounding[2]
            assert 0 < memo.nbytes <= 600 and len(memo.entries) < len(lines)
        assert steps.memo_counts(provider)["hits"] + steps.memo_counts(provider)["misses"] == 3 * len(lines)
