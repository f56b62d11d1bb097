"""Symbolic rules: templates, phase ordering, depth-bounded recursion."""

import pytest

from nsplan.kg import HOUSEHOLD_RELATIONS, AdaptedTriplet
from nsplan.verbalize import (
    DEFAULT_RULES,
    PHASES,
    SymbolicRule,
    build_knowledge_prompt,
    verbalize_triplet,
)


def _t(head, relation, tail, weight=1.0, adapted=None):
    return AdaptedTriplet(head, relation, tail, weight, weight if adapted is None else adapted)


def _sub(*triplets):
    """The plain tuple that select() hands to build_knowledge_prompt."""
    return triplets


class TestTemplates:
    @pytest.mark.parametrize(
        "relation,head,tail,want",
        [
            ("Synonym", "tv", "television", "tv, also known as television"),
            ("AtLocation", "shampoo", "bathroom", "go to the location of shampoo"),
            ("CapableOf", "soap", "clean_you", "soap can clean you"),
            ("Causes", "shower", "get_clean", "shower causes get clean"),
            (
                "CausesDesire",
                "being_dirty",
                "take_a_shower",
                "being dirty makes you want to take a shower",
            ),
            (
                "UsedFor",
                "wash_hair",
                "shampoo",
                "go to find shampoo and use it for wash hair",
            ),
            ("HasPrerequisite", "take_a_shower", "turn_on_the_water", "turn on the water"),
            ("HasSubevent", "take_a_shower", "wash_your_hair", "wash your hair"),
            ("HasLastSubevent", "take_a_shower", "dry_off", "dry off"),
        ],
    )
    def test_each_default_rule(self, relation, head, tail, want):
        assert verbalize_triplet(_t(head, relation, tail)) == want

    def test_all_nine_relations_covered(self):
        assert len(DEFAULT_RULES) == 9

    def test_unmapped_relation(self):
        with pytest.raises(ValueError) as err:
            verbalize_triplet(_t("a", "DistinctFrom", "b"))
        assert str(err.value) == "no symbolic rule for relation 'DistinctFrom'"

    def test_recursive_relations(self):
        recursive = {r.relation for r in DEFAULT_RULES.values() if r.recursive}
        assert recursive == {"HasPrerequisite", "HasSubevent"}

    def test_rule_phase_validated(self):
        with pytest.raises(ValueError):
            SymbolicRule("X", "{head}", False, "Epilogue")


class TestPromptShape:
    def test_phase_order(self):
        prompt = build_knowledge_prompt(
            _sub(
                _t("root", "HasLastSubevent", "last"),
                _t("root", "HasSubevent", "middle"),
                _t("root", "UsedFor", "tool"),
                _t("root", "HasPrerequisite", "first"),
            )
        )
        assert list(prompt) == [
            "first",
            "go to find tool and use it for root",
            "middle",
            "last",
        ]
        assert PHASES == ("Prerequisite", "Body", "Subevent", "LastSubevent")

    def test_weight_order_within_phase(self):
        prompt = build_knowledge_prompt(
            _sub(
                _t("root", "HasSubevent", "low", adapted=1.0),
                _t("root", "HasSubevent", "high", adapted=3.0),
                _t("root", "HasSubevent", "mid", adapted=2.0),
            )
        )
        assert list(prompt) == ["high", "mid", "low"]

    def test_tie_break_is_lexicographic(self):
        prompt = build_knowledge_prompt(
            _sub(
                _t("root", "HasSubevent", "b", adapted=2.0),
                _t("root", "HasSubevent", "a", adapted=2.0),
            )
        )
        assert list(prompt) == ["a", "b"]

    def test_duplicate_line_texts_suppressed_globally(self):
        # Different triplets, identical surface text once verbalized.
        prompt = build_knowledge_prompt(
            _sub(
                _t("root", "HasSubevent", "wash_hair"),
                _t("other", "HasSubevent", "wash_hair"),
            )
        )
        assert list(prompt) == ["wash hair"]

    def test_unmapped_relation_in_subgraph(self):
        with pytest.raises(ValueError) as err:
            build_knowledge_prompt(_sub(_t("a", "RelatedTo", "b")))
        assert str(err.value) == "no symbolic rule for relation 'RelatedTo'"

    def test_empty_subgraph(self):
        assert list(build_knowledge_prompt(_sub())) == []


class TestRecursionDepth:
    CHAIN = (
        _t("a", "HasSubevent", "b", adapted=4.0),
        _t("b", "HasSubevent", "c", adapted=3.0),
        _t("c", "HasSubevent", "d", adapted=2.0),
    )

    def test_depth_two_blocks_third_line(self):
        # c->d is reached at depth 2 under root a->b, so its line is not
        # emitted there, and having been visited it never re-roots.
        prompt = build_knowledge_prompt(_sub(*self.CHAIN), max_depth=2)
        assert list(prompt) == ["b", "c"]

    def test_depth_three_emits_whole_chain(self):
        prompt = build_knowledge_prompt(_sub(*self.CHAIN), max_depth=3)
        assert list(prompt) == ["b", "c", "d"]

    def test_depth_one_keeps_roots_only(self):
        prompt = build_knowledge_prompt(_sub(*self.CHAIN), max_depth=1)
        assert list(prompt) == ["b", "c", "d"][:1] or list(prompt) == ["b"]

    def test_cycle_terminates(self):
        prompt = build_knowledge_prompt(
            _sub(
                _t("a", "HasSubevent", "b", adapted=2.0),
                _t("b", "HasSubevent", "a", adapted=1.0),
            ),
            max_depth=5,
        )
        assert list(prompt) == ["b", "a"]

    def test_non_recursive_rule_does_not_descend(self):
        prompt = build_knowledge_prompt(
            _sub(
                _t("a", "HasLastSubevent", "b", adapted=2.0),
                _t("b", "HasLastSubevent", "c", adapted=1.0),
            ),
            max_depth=1,
        )
        # Both are roots in the LastSubevent phase; neither recursion nor
        # depth blocking applies to non-recursive rules at depth 0.
        assert list(prompt) == ["b", "c"]

    def test_prerequisites_of_subevents_expand(self):
        prompt = build_knowledge_prompt(
            _sub(
                _t("a", "HasSubevent", "b", adapted=2.0),
                _t("b", "HasPrerequisite", "p", adapted=1.0),
            ),
            max_depth=3,
        )
        # The prerequisite roots first in its own phase, then b under a.
        assert list(prompt) == ["p", "b"]


def test_rule_table_covers_exactly_the_household_relations():
    """The graph admits exactly the relations the rule table verbalizes."""
    assert set(DEFAULT_RULES) == HOUSEHOLD_RELATIONS


def test_regression_prompt_for_shower_fixture(shower_graph, fixture_path):
    """Frozen golden: the verbatim subgraph, no selection, depth 3. No
    adaption runs, so each adapted weight is the sampled weight."""
    from nsplan.kg import sample_subgraph

    sub = sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
    prompt = build_knowledge_prompt(tuple(_t(*t.key, t.weight) for t in sub), max_depth=3)
    with open(fixture_path("pg_regression.txt"), encoding="utf-8") as fh:
        want = [line.rstrip("\n") for line in fh if line.strip()]
    assert list(prompt) == want
