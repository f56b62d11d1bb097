import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsplan import entities
from nsplan.entities import normalize_key, parse_entities, tag_word
from nsplan.kg import KnowledgeGraph, Triplet


class TestNormalizeKey:
    def test_basic(self):
        assert normalize_key("Living Room") == "living_room"

    def test_punctuation_stripped(self):
        assert normalize_key("don't slip!") == "dont_slip"

    def test_collapses_whitespace(self):
        assert normalize_key("  take   a   shower ") == "take_a_shower"

    def test_idempotent(self):
        for surface in ["Watch TV", "living room", "wash your hair", "42 things"]:
            key = normalize_key(surface)
            assert normalize_key(key) == key

    def test_graph_aware_plural_retry(self):
        graph = KnowledgeGraph([Triplet("towel", "UsedFor", "drying", 1.0)])
        assert normalize_key("towels", graph=graph) == "towel"

    def test_plural_kept_when_graph_has_it(self):
        graph = KnowledgeGraph([Triplet("towels", "UsedFor", "drying", 1.0)])
        assert normalize_key("towels", graph=graph) == "towels"

    def test_plural_kept_without_graph(self):
        assert normalize_key("towels") == "towels"


class TestTagging:
    @pytest.mark.parametrize(
        "word,tag",
        [
            ("the", "DET"),
            ("in", "PREP"),
            ("and", "CONJ"),
            ("watch", "VERB"),
            ("television", "NOUN"),
            ("living", "ADJ"),
            ("zorping", "VERB"),  # -ing fallback for unknown words
            ("brightness", "NOUN"),  # -ness fallback
            ("zorp", "NOUN"),  # unknown words default to nouns
        ],
    )
    def test_word_classes(self, word, tag):
        assert tag_word(word) == tag


class TestParseEntities:
    def test_verb_phrase_with_inner_noun(self):
        parsed = parse_entities("Watch TV")
        assert [(e.key, e.kind) for e in parsed.entities] == [
            ("watch_tv", "VerbPhrase"),
            ("tv", "Noun"),
        ]

    def test_chunking_with_preposition_and_determiner(self):
        parsed = parse_entities("watch television in the living room")
        assert [(e.key, e.kind) for e in parsed.entities] == [
            ("watch_television", "VerbPhrase"),
            ("television", "Noun"),
            ("living_room", "NounPhrase"),
        ]

    def test_conjunction_is_a_boundary(self):
        parsed = parse_entities("find soap and shampoo")
        keys = [e.key for e in parsed.entities]
        assert "find_soap" in keys and "shampoo" in keys
        assert all("and" not in k.split("_") for k in keys)

    def test_bare_verb(self):
        parsed = parse_entities("Clean")
        assert [(e.key, e.kind) for e in parsed.entities] == [("clean", "VerbPhrase")]

    def test_order_follows_first_occurrence(self):
        # Determiners never appear inside keys, so the verb phrase drops "a".
        parsed = parse_entities("take a shower")
        assert parsed.entities[0].key == "take_shower"
        assert parsed.entities[1].key == "shower"

    def test_duplicate_keys_first_wins(self):
        parsed = parse_entities("watch television, watch television")
        assert len([e for e in parsed.entities if e.key == "watch_television"]) == 1

    def test_empty_text(self):
        assert parse_entities("").entities == ()

    def test_keys_method(self):
        parsed = parse_entities("Watch TV")
        assert parsed.keys() == ["watch_tv", "tv"]

    def test_graph_aware_keys(self):
        graph = KnowledgeGraph([Triplet("towel", "AtLocation", "bathroom", 1.0)])
        parsed = parse_entities("fetch towels", graph=graph)
        assert "towel" in parsed.keys()

    def test_plural_fallback_strips_one_s_only(self):
        # "groceries" minus one trailing "s" is "grocerie", which is not a
        # node here, so the surface form survives untouched.
        graph = KnowledgeGraph([Triplet("grocery", "AtLocation", "store", 1.0)])
        parsed = parse_entities("buy groceries", graph=graph)
        assert "groceries" in parsed.keys()
        assert "grocery" not in parsed.keys()

    def test_every_key_idempotent_under_normalize(self):
        for task in ["Watch TV", "Turn light off", "put groceries in fridge", "Work"]:
            for key in parse_entities(task).keys():
                assert normalize_key(key) == key


def test_tokenize_keeps_interior_apostrophes():
    assert entities.tokenize("don't stop") == ["don't", "stop"]
    assert entities.tokenize("rock'n'roll, 'quoted' o''clock") == ["rock'n'roll", "quoted", "o''clock"]


@pytest.mark.parametrize(
    "text, words",
    [("café au lait", ["café", "au", "lait"]), ("naïve", ["naïve"]), ("ＴＶ", ["ｔｖ"]), ("snake_case", ["snake", "case"])],
)
def test_tokenize_words_are_runs_of_unicode_letters_and_digits(text, words):
    assert entities.tokenize(text) == words


@given(st.text())
@settings(max_examples=500, deadline=None)
def test_tokenize_agrees_with_the_oracle(text):
    assert entities.tokenize(text) == oracles._words(text)


@pytest.mark.parametrize(
    "task, want",
    [
        ("watch the living room", [("watch_living_room", "VerbPhrase"), ("living_room", "NounPhrase")]),
        ("the in towel", [("towel", "Noun")]),
        ("big on sofa", [("sofa", "Noun")]),
        ("the big", []),
        ("the tv room", [("tv_room", "NounPhrase")]),
        ("towel in bathroom", [("towel", "Noun"), ("bathroom", "Noun")]),
        ("towel it soap", [("towel", "Noun"), ("soap", "Noun")]),
        ("soap and shampoo", [("soap", "Noun"), ("shampoo", "Noun")]),
        ("go watch tv", [("go", "VerbPhrase"), ("watch_tv", "VerbPhrase"), ("tv", "Noun")]),
        ("find the", [("find", "VerbPhrase")]),
        ("find towel and towel", [("find_towel", "VerbPhrase"), ("towel", "Noun")]),
    ],
    ids=["verb-det-adj-noun", "det-without-noun", "adj-without-noun", "no-noun", "noun-noun",
         "split-by-prep", "split-by-pron", "split-by-conj", "verb-verb-noun", "trailing-det", "duplicate-key"],
)
def test_chunk_patterns(task, want):
    assert [(e.key, e.kind) for e in parse_entities(task)] == want


# Words per tag, the tag each word gets from tag_word.
_POOLS = {
    "DET": ["the", "a", "some", "each"],
    "ADJ": ["big", "red", "living", "dirty"],
    "NOUN": ["towel", "tv", "room", "soap"],
    "VERB": ["watch", "go", "find", "take"],
    "PREP": ["in", "on", "to", "with"],
    "PRON": ["it", "you", "my", "them"],
    "CONJ": ["and", "or", "then", "but"],
}
_CLOSED = set(_POOLS["DET"] + _POOLS["PREP"] + _POOLS["PRON"] + _POOLS["CONJ"])
_TAGGED = [(word, tag) for tag, words in _POOLS.items() for word in words]


def test_pools_are_tagged_as_drawn():
    assert all(tag_word(word) == tag for word, tag in _TAGGED)


def _object_after(tagged, i):
    """Content words of the noun phrase starting at position i (one optional
    determiner, then adjectives and at least one noun), or [] when none does."""
    j = i + 1 if i < len(tagged) and tagged[i][1] == "DET" else i
    adjs = list(itertools.takewhile(lambda wt: wt[1] == "ADJ", tagged[j:]))
    nouns = list(itertools.takewhile(lambda wt: wt[1] == "NOUN", tagged[j + len(adjs):]))
    return [w for w, _ in adjs + nouns] if nouns else []


@given(st.lists(st.sampled_from(_TAGGED), max_size=12))
@settings(max_examples=300, deadline=None)
def test_keys_follow_the_grammar(tagged):
    parsed = parse_entities(" ".join(w for w, _ in tagged))
    keys = parsed.keys()
    assert len(keys) == len(set(keys))
    assert not any(_CLOSED & set(key.split("_")) for key in keys)
    verb_phrases = [e.key for e in parsed if e.kind == "VerbPhrase"]
    want = ["_".join([w, *_object_after(tagged, i + 1)]) for i, (w, tag) in enumerate(tagged) if tag == "VERB"]
    assert verb_phrases == list(dict.fromkeys(want))


@given(st.lists(st.sampled_from(_TAGGED), max_size=len(_TAGGED), unique=True))
@settings(max_examples=300, deadline=None)
def test_entities_come_in_first_token_order(tagged):
    words = [w for w, _ in tagged]
    tags = [None, *(tag for _, tag in tagged), None]  # tags[i + 1] is the tag of words[i]
    parsed = parse_entities(" ".join(words))
    firsts = [words.index(key.split("_")[0]) for key in parsed.keys()]
    assert firsts == sorted(set(firsts))
    for entity in parsed:
        if entity.kind != "VerbPhrase":  # a run no adjective before it or noun after it extends
            phrase = entity.key.split("_")
            start = words.index(phrase[0])
            assert words[start:start + len(phrase)] == phrase
            assert tags[start] != "ADJ" and tags[start + len(phrase) + 1] != "NOUN"
