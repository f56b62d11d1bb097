import io
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsplan import kg
from nsplan.errors import InputError
from nsplan.kg import KnowledgeGraph, Triplet

from conftest import fixture_path


def tsv_line(head, relation, tail, weight, lang="en"):
    return (
        f"/a/[/r/{relation}/,/c/{lang}/{head}/,/c/{lang}/{tail}/]\t/r/{relation}"
        f"\t/c/{lang}/{head}\t/c/{lang}/{tail}\t" + json.dumps({"weight": weight})
    )


def jsonl_row(head, relation, tail, weight):
    return json.dumps({"head": head, "relation": relation, "tail": tail, "weight": weight})


# Row-shaped lines whose fields range over wrong types and values, next to
# arbitrary bytes: lenient ingest must count each bad one, never raise.
_FIELDS = st.one_of(
    st.text(max_size=4), st.sampled_from(sorted(kg.HOUSEHOLD_RELATIONS)), st.integers(),
    st.none(), st.lists(st.integers(), max_size=2),
)
_WEIGHTS = st.one_of(st.floats(), st.integers(min_value=-2, max_value=2), _FIELDS)
_JSONL_ROWS = st.builds(jsonl_row, _FIELDS, _FIELDS, _FIELDS, _WEIGHTS).map(
    lambda line: line.encode("utf-8", "surrogatepass")
)
_TSV_ROWS = st.builds(
    tsv_line, st.text(max_size=4), st.sampled_from(sorted(kg.HOUSEHOLD_RELATIONS)),
    st.text(max_size=4), st.floats(),
).map(lambda line: line.encode("utf-8", "surrogatepass"))


class TestTriplet:
    def test_rejects_empty_head(self):
        with pytest.raises(ValueError):
            Triplet("", "UsedFor", "soap")

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Triplet("soap", "UsedFor", "washing", weight=0.0)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite positive number"):
            Triplet("soap", "UsedFor", "washing", weight=weight)

    def test_key(self):
        t = Triplet("soap", "UsedFor", "washing", 2.0)
        assert t.key == ("soap", "UsedFor", "washing")


class TestIngest:
    def test_whitelist_keeps_the_nine_relations(self):
        lines = [
            tsv_line("a", rel, "b", 1.0)
            for rel in sorted(kg.HOUSEHOLD_RELATIONS)
        ]
        graph = kg.ingest(lines)
        assert graph.edge_count == 9
        assert graph.stats.dropped_relation == 0

    @pytest.mark.parametrize(
        "relation",
        [
            "DistinctFrom",
            "DerivedFrom",
            "SymbolOf",
            "EtymologicallyRelatedTo",
            "EtymologicallyDerivedFrom",
        ],
    )
    def test_blacklisted_relations_are_dropped(self, relation):
        graph = kg.ingest([tsv_line("a", relation, "b", 1.0)])
        assert graph.edge_count == 0
        assert graph.stats.dropped_relation == 1

    def test_language_filter(self):
        lines = [
            tsv_line("soap", "UsedFor", "washing", 1.0),
            tsv_line("seife", "UsedFor", "waschen", 1.0, lang="de"),
        ]
        graph = kg.ingest(lines)
        assert graph.edge_count == 1
        assert graph.stats.dropped_language == 1

    def test_malformed_line_lenient_vs_strict(self):
        lines = [tsv_line("a", "UsedFor", "b", 1.0), "only\ttwo"]
        graph = kg.ingest(lines)
        assert graph.edge_count == 1
        assert graph.stats.dropped_malformed == 1
        with pytest.raises(InputError) as err:
            kg.ingest(lines, strict=True)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "fmt,bad",
        [
            ("jsonl", jsonl_row("", "Causes", "b", 1.0)),
            ("jsonl", jsonl_row("a", "Causes", "", 1.0)),
            ("jsonl", jsonl_row("a", "Causes", "b", 0)),
            ("jsonl", jsonl_row("a", "Causes", "b", -1.5)),
            ("jsonl", jsonl_row("a", "Causes", "b", float("nan"))),
            ("jsonl", jsonl_row(1, "Causes", "b", 1.0)),
            ("jsonl", jsonl_row("a", ["Causes"], "b", 1.0)),
            ("jsonl", jsonl_row("a", "Causes", None, 1.0)),
            ("jsonl", b"\xff\xfe{}"),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", 0.0)),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", float("nan"))),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", 1.0).encode("utf-8") + b"\xc3"),
            ("jsonl", jsonl_row("a", "Causes", "b", math.inf)),
            ("jsonl", jsonl_row("a", "Causes", "b", 1.0).replace("1.0", "1e400")),
            ("jsonl", jsonl_row("a", "Causes", "b", 10**400)),
            ("jsonl", jsonl_row("a", "Causes", "b", "3")),
            ("jsonl", jsonl_row("a", "Causes", "b", True)),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", math.inf)),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", 1.0).replace("1.0", "1e400")),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", 10**400)),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", "3")),
            ("conceptnet-tsv", tsv_line("a", "UsedFor", "b", True)),
        ],
        ids=[
            "empty-head", "empty-tail", "zero-weight", "negative-weight", "nan-weight", "int-head",
            "list-relation", "null-tail", "not-utf8", "tsv-zero-weight", "tsv-nan-weight",
            "tsv-not-utf8", "inf-weight", "overflowing-weight", "huge-int-weight", "string-weight",
            "bool-weight", "tsv-inf-weight", "tsv-overflowing-weight", "tsv-huge-int-weight",
            "tsv-string-weight", "tsv-bool-weight",
        ],
    )
    def test_bad_row_is_malformed_not_fatal(self, fmt, bad):
        row = jsonl_row if fmt == "jsonl" else tsv_line
        lines = [row("a", "UsedFor", "b", 1.0), bad, row("c", "Causes", "d", 2.0)]
        if isinstance(bad, bytes):
            lines = [line if isinstance(line, bytes) else line.encode("utf-8") for line in lines]
        graph = kg.ingest(lines, fmt=fmt)
        assert graph.edge_count == 2
        assert graph.stats.dropped_malformed == 1
        with pytest.raises(InputError) as err:
            kg.ingest(lines, fmt=fmt, strict=True)
        assert err.value.line_no == 2

    @settings(max_examples=300, deadline=None)
    @given(
        fmt=st.sampled_from(["jsonl", "conceptnet-tsv"]),
        lines=st.lists(st.one_of(st.binary(max_size=60), _JSONL_ROWS, _TSV_ROWS), max_size=6),
    )
    def test_lenient_ingest_of_arbitrary_lines_never_raises(self, fmt, lines):
        graph = kg.ingest(lines, fmt=fmt)
        for t in graph.triplets:
            assert all(isinstance(field, str) and field for field in t.key)
            assert type(t.weight) is float and 0 < t.weight < math.inf

    @pytest.mark.parametrize(
        "line, reason",
        [('{"head": "a", "relation": "UsedFor", "tail": "b"}', "missing field 'weight'"),
         ('["a", "UsedFor", "b", 1.0]', "line is not a JSON object")],
        ids=["missing-field", "not-an-object"],
    )
    def test_a_bad_jsonl_row_names_the_line_and_the_reason(self, line, reason):
        with pytest.raises(InputError) as err:
            kg.ingest([jsonl_row("a", "UsedFor", "b", 1.0), line], fmt="jsonl", strict=True)
        assert (str(err.value), err.value.line_no) == (f"line 2: {reason}", 2)

    def test_metadata_without_weight_is_malformed(self):
        line = "/a/x\t/r/UsedFor\t/c/en/a\t/c/en/b\t{}"
        with pytest.raises(InputError):
            kg.ingest([line], strict=True)

    def test_duplicate_keeps_max_weight(self):
        lines = [
            tsv_line("a", "UsedFor", "b", 1.0),
            tsv_line("a", "UsedFor", "b", 3.0),
            tsv_line("a", "UsedFor", "b", 2.0),
        ]
        graph = kg.ingest(lines)
        assert graph.edge_count == 1
        assert graph.stats.duplicates == 2
        assert graph.triplets[0].weight == 3.0
        for node in ("a", "b"):
            assert [(t.key, t.weight) for t in graph.neighbors(node)] == [
                (("a", "UsedFor", "b"), 3.0)
            ]

    def test_duplicate_tie_keeps_first_copy(self):
        first, second = Triplet("a", "Causes", "b", 2.0), Triplet("a", "Causes", "b", 2.0)
        graph = KnowledgeGraph([first, second])
        assert graph.triplets[0] is first
        assert graph.neighbors("b")[0] is first

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abc"),
                st.sampled_from(["Causes", "UsedFor", "AtLocation"]),
                st.sampled_from("abc"),
                st.sampled_from([0.5, 1.0, 2.0, 3.0]),
            ),
            max_size=30,
        )
    )
    def test_dedup_matches_max_weight_reference(self, rows):
        best = {}
        for h, r, t, w in rows:
            best[(h, r, t)] = max(w, best.get((h, r, t), w))
        want = sorted((-w, h, r, t) for (h, r, t), w in best.items())
        lines = [json.dumps({"head": h, "relation": r, "tail": t, "weight": w}) for h, r, t, w in rows]
        ingested = kg.ingest(lines, fmt="jsonl")
        built = KnowledgeGraph([Triplet(*row) for row in rows])
        for graph in (ingested, built):
            assert [(-t.weight, *t.key) for t in graph.triplets] == want
            for node in "abc":
                incident = [k for k in want if node in (k[1], k[3])]
                assert [(-t.weight, *t.key) for t in graph.neighbors(node)] == incident
        assert ingested.edge_count == len(best)
        assert ingested.edge_count + ingested.stats.duplicates == len(rows)

    def test_jsonl_format(self):
        lines = [json.dumps({"head": "a", "relation": "Causes", "tail": "b", "weight": 2.0})]
        graph = kg.ingest(lines, fmt="jsonl")
        assert graph.edge_count == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            kg.ingest([], fmt="csv")

    def test_empty_input_warns_not_raises(self):
        graph = kg.ingest([])
        assert graph.edge_count == 0

    def test_byte_stream(self):
        stream = io.BytesIO(tsv_line("a", "UsedFor", "b", 1.0).encode("utf-8"))
        assert kg.ingest(stream).edge_count == 1


class TestShowerFixture:
    def test_counts(self, shower_graph):
        # 30 lines: one MotivatedByGoal filtered, one duplicate collapsed
        assert shower_graph.edge_count == 28
        assert shower_graph.stats.duplicates == 1
        assert shower_graph.stats.dropped_relation == 1

    def test_weights_survive_verbatim(self, shower_graph):
        t = next(
            t for t in shower_graph.triplets
            if t.key == ("take_a_shower", "HasPrerequisite", "take_out_your_clothes")
        )
        assert t.weight == 4.47


class TestNeighbors:
    def build(self):
        return KnowledgeGraph(
            [
                Triplet("a", "Causes", "b", 3.0),
                Triplet("b", "Causes", "c", 2.0),
                Triplet("x", "UsedFor", "a", 5.0),
                Triplet("a", "AtLocation", "d", 3.0),
            ]
        )

    def test_both_directions(self):
        graph = self.build()
        keys = [t.key for t in graph.neighbors("a")]
        assert ("x", "UsedFor", "a") in keys and ("a", "Causes", "b") in keys

    def test_ordering_weight_then_lex(self):
        graph = self.build()
        assert [t.weight for t in graph.neighbors("a")] == [5.0, 3.0, 3.0]
        tied = [t for t in graph.neighbors("a") if t.weight == 3.0]
        assert [t.relation for t in tied] == ["AtLocation", "Causes"]

    def test_unknown_node_empty(self):
        assert self.build().neighbors("zzz") == []


class TestSampleSubgraph:
    def chain(self, length=5):
        return KnowledgeGraph(
            [Triplet(f"n{i}", "Causes", f"n{i+1}", 1.0) for i in range(length)]
        )

    def test_hop_bound(self):
        graph = self.chain()
        sub = kg.sample_subgraph(graph, ["n0"], hops=2)
        heads = {t.head for t in sub}
        assert heads == {"n0", "n1"}  # n2 sits at the boundary, not expanded

    def test_zero_hops_empty(self):
        assert len(kg.sample_subgraph(self.chain(), ["n0"], hops=0)) == 0

    def test_unknown_anchor_ignored(self):
        sub = kg.sample_subgraph(self.chain(), ["n0", "ghost"], hops=1)
        assert len(sub) == 1

    def test_fanout_cap_prefers_heavier_edges(self):
        graph = KnowledgeGraph(
            [Triplet("hub", "Causes", f"t{i}", float(i + 1)) for i in range(kg.FANOUT_CAP + 3)]
        )
        sub = kg.sample_subgraph(graph, ["hub"], hops=1)
        assert sorted(t.weight for t in sub) == [float(w) for w in range(4, kg.FANOUT_CAP + 4)]

    def test_non_whitelisted_edges_never_traversed(self):
        """A graph holds household relations only, so sampling has no other
        edge to follow: the constructor rejects one, naming it."""
        with pytest.raises(ValueError, match="'RelatedTo' is not a household relation"):
            KnowledgeGraph([Triplet("a", "RelatedTo", "b", 9.0), Triplet("a", "Causes", "c", 1.0)])

    def test_deterministic(self, shower_graph):
        a = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        b = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        assert a == b

    def test_output_sorted_by_weight_then_lex(self, shower_graph):
        sub = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        keys = [(-t.weight, t.head, t.relation, t.tail) for t in sub]
        assert keys == sorted(keys)

    def test_hands_over_the_graphs_own_triplets(self, shower_graph):
        sub = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        stored = {t.key: t for t in shower_graph.triplets}
        assert type(sub) is tuple and sub
        assert all(stored[t.key] is t for t in sub)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.dictionaries(
            st.tuples(
                st.sampled_from("abcdef"),
                st.sampled_from(["Causes", "UsedFor", "HasSubevent", "RelatedTo"]),
                st.sampled_from("abcdef"),
            ),
            st.sampled_from([0.5, 1.0, 2.0, 3.5]),
            max_size=20,
        ),
        anchors=st.lists(st.sampled_from("abcdefz"), max_size=3),
        hops=st.integers(min_value=0, max_value=4),
        cap=st.integers(min_value=1, max_value=3),
    )
    def test_matches_layered_bfs_oracle(self, rows, anchors, hops, cap):
        triplets = [Triplet(h, r, t, w) for (h, r, t), w in rows.items()]
        # The graph holds only the household rows; the oracle sees all of
        # them and applies the whitelist itself.
        household = [t for t in triplets if t.relation in kg.HOUSEHOLD_RELATIONS]
        with mock.patch.object(kg, "FANOUT_CAP", cap):
            sub = kg.sample_subgraph(KnowledgeGraph(household), anchors, hops)
        want, _ = oracles.sample_subgraph_oracle(
            triplets, anchors, hops, cap, kg.HOUSEHOLD_RELATIONS
        )
        assert [t.key for t in sub] == [t.key for t in want]
        assert [t.weight for t in sub] == [t.weight for t in want]
        # Whatever the cap, no triplet lies past the hop bound: one endpoint
        # is closer than ``hops`` to an anchor along whitelisted edges.
        _, reach = oracles.sample_subgraph_oracle(
            triplets, anchors, hops, len(triplets) + 1, kg.HOUSEHOLD_RELATIONS
        )
        assert all(min(reach.get(t.head, hops), reach.get(t.tail, hops)) < hops for t in sub)


def test_load_graph_roundtrip(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text(
        json.dumps({"head": "a", "relation": "Causes", "tail": "b", "weight": 1.5}) + "\n"
    )
    graph = kg.load_graph(str(path), fmt="jsonl")
    assert graph.triplets[0].key == ("a", "Causes", "b")


def test_load_graph_counts_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "g.jsonl"
    rows = [jsonl_row("a", "Causes", "b", 1.0).encode(), b"\xff\xfe", jsonl_row("b", "Causes", "c", 1.0).encode()]
    path.write_bytes(b"\n".join(rows) + b"\n")
    graph = kg.load_graph(str(path), fmt="jsonl")
    assert graph.edge_count == 2
    assert graph.stats.dropped_malformed == 1
    with pytest.raises(InputError) as err:
        kg.load_graph(str(path), fmt="jsonl", strict=True)
    assert err.value.line_no == 2


def test_shower_fixture_loads_fast(shower_graph):
    assert "take_a_shower" in shower_graph
