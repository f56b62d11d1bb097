"""Closed-world translation: closure, argmax oracle, tie breaking."""

import json
import re

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
from nsplan.embeddings import HashEmbedding, best_row, embed
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


def _assert_best_row_matches_scan(text, texts, table):
    """``best_row`` over the raw rows, with no ``embed`` in between, picks
    the scan's row with the same cosine bit for bit."""
    matrix = np.array([table.rows[t] for t in texts])
    index, cos = best_row(table.rows[text], matrix, texts)
    want_text, want_cos = oracles.translate_scan_oracle(text, texts, table)
    assert texts[index] == want_text
    assert cos.hex() == want_cos.hex()
    return index, cos


@st.composite
def _tables(draw):
    """A table provider over up to 480 steps and a query ("?") whose rows
    are a few ulps apart from one unit vector, so many scores tie to within
    rounding. Some draws scale rows by up to 1 +- 9e-10 (``embed`` divides
    that out; fed raw to ``best_row``, cosines beyond +-1 clamp and tie),
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
    def test_best_row_on_raw_rows_matches_the_scan_oracle(self, table):
        texts, provider = table
        _assert_best_row_matches_scan("?", texts, provider)
        _assert_best_row_matches_scan(texts[-1], texts, provider)

    @pytest.mark.parametrize(
        "sign, scale_a, scale_b", [(1.0, 1 - 8e-10, 1 + 9e-10), (-1.0, 1 + 9e-10, 1 - 8e-10)]
    )
    def test_cosines_beyond_one_clamp_and_tie(self, sign, scale_a, scale_b):
        # rows of norm 1 +- 9e-10, inside best_row's premise; both raw
        # cosines lie beyond +-1, 1.7e-9 apart, with "b" the larger:
        # clamped, they tie and "a" wins
        u = np.full(4, 0.5)
        provider = _Table({"?": u * (1 + 9e-10), "a": sign * scale_a * u, "b": sign * scale_b * u})
        assert _assert_best_row_matches_scan("?", ["b", "a"], provider) == (1, sign)

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
