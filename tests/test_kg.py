import gc
import io
import json
import math
import random
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsplan import _files, embeddings, kg
from nsplan.errors import InputError
from nsplan.kg import AdaptedTriplet, KnowledgeGraph, Triplet

from conftest import fixture_path


def tsv_line(head, relation, tail, weight, lang="en"):
    return (
        f"/a/[/r/{relation}/,/c/{lang}/{head}/,/c/{lang}/{tail}/]\t/r/{relation}"
        f"\t/c/{lang}/{head}\t/c/{lang}/{tail}\t" + json.dumps({"weight": weight})
    )


def jsonl_row(head, relation, tail, weight):
    return json.dumps({"head": head, "relation": relation, "tail": tail, "weight": weight})


def every_triplet(graph):
    return [graph.triplet(r) for r in range(graph.edge_count)]


def incident(graph, node):
    """The triplets that touch ``node``, in rank order: its first
    ``FANOUT_CAP`` incident ranks, as a one-hop sample."""
    return [graph.triplet(r) for r in kg.sample_subgraph(graph, [node], hops=1)]


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
        with pytest.raises(ValueError, match="head and tail must be nonempty"):
            KnowledgeGraph([("", "UsedFor", "soap", 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="finite positive number, got 0.0"):
            KnowledgeGraph([("soap", "UsedFor", "washing", 0.0)])

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite positive number"):
            KnowledgeGraph([("soap", "UsedFor", "washing", weight)])

    def test_key(self):
        t = Triplet("soap", "UsedFor", "washing", 2.0)
        assert t.key == ("soap", "UsedFor", "washing")

    def test_is_a_named_tuple_with_a_float_weight(self):
        assert Triplet._fields == ("head", "relation", "tail", "weight")
        assert Triplet("soap", "UsedFor", "washing", 1.0) == ("soap", "UsedFor", "washing", 1.0)
        assert type(KnowledgeGraph([("soap", "UsedFor", "washing", 2)]).triplet(0).weight) is float

    def test_adapted_triplet_is_a_triplet_with_an_adapted_weight(self):
        assert issubclass(AdaptedTriplet, tuple)
        assert AdaptedTriplet._fields == Triplet._fields + ("adapted_weight",)
        assert AdaptedTriplet.key is Triplet.key
        for record in (Triplet, AdaptedTriplet):
            assert "__new__" not in vars(record) and "__init__" not in vars(record)
        assert AdaptedTriplet("soap", "UsedFor", "washing", 1.0, 1.5).key == ("soap", "UsedFor", "washing")


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
        for t in every_triplet(graph):
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
        assert graph.triplet(0).weight == 3.0
        for node in ("a", "b"):
            assert [(t.key, t.weight) for t in incident(graph, node)] == [
                (("a", "UsedFor", "b"), 3.0)
            ]

    def test_duplicate_tie_keeps_first_copy(self):
        first, second = Triplet("a", "Causes", "b", 2.0), Triplet("a", "Causes", "b", 2.0)
        graph = KnowledgeGraph([first, second])
        assert graph.triplet(0) == first and graph.stats.duplicates == 1
        assert incident(graph, "b") == [first]

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
            assert [(-t.weight, *t.key) for t in every_triplet(graph)] == want
            for node in "abc":
                touching = [k for k in want if node in (k[1], k[3])]
                assert [(-t.weight, *t.key) for t in incident(graph, node)] == touching
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


# Node keys a ConceptNet URI can carry (no "/", tab or line break), few
# enough that heads, tails and whole keys repeat; tied weights; and bad rows
# of each kind the row rule names.
_KEYS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\t\r\n"), min_size=1, max_size=3)
_BAD_ROWS = st.one_of(
    st.tuples(st.just(""), st.sampled_from(["Causes", "UsedFor"]), _KEYS, st.just(1.0)),
    st.tuples(_KEYS, st.sampled_from(["Causes", "UsedFor"]), _KEYS,
              st.sampled_from([0, 0.0, -1.5, math.nan, math.inf, "3", True])),
)


@st.composite
def _rows(draw):
    """(rows, bad): good rows over a small node pool, some with a relation
    outside the household table, and ``bad`` the indexes of bad rows."""
    nodes = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    good = st.tuples(
        st.sampled_from(nodes), st.sampled_from([*sorted(kg.HOUSEHOLD_RELATIONS)[:3], "RelatedTo"]),
        st.sampled_from(nodes), st.sampled_from([0.5, 1.0, 1.0, 2.25, 1e-300, 7e12]),
    )
    good, bad = good.map(lambda row: (row, False)), _BAD_ROWS.map(lambda row: (row, True))
    tagged = draw(st.lists(st.one_of(good, good, good, bad), max_size=25))
    return [row for row, _ in tagged], [i for i, (_, is_bad) in enumerate(tagged) if is_bad]


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_rows())
    def test_both_formats_and_the_constructor_build_one_graph(self, drawn):
        """TSV and JSONL lines of the rows, and the constructor on the good
        household rows, give the same triplets, columns and counts."""
        rows, bad = drawn
        good = [row for i, row in enumerate(rows) if i not in bad]
        household = [row for row in good if row[1] in kg.HOUSEHOLD_RELATIONS]
        built = KnowledgeGraph(household)
        for i in bad:
            with pytest.raises(ValueError):
                KnowledgeGraph([rows[i]])
        counts = kg.IngestStats(dropped_relation=len(good) - len(household), dropped_malformed=len(bad),
                                duplicates=built.stats.duplicates)
        assert built.stats == kg.IngestStats(duplicates=len(household) - built.edge_count)
        for fmt, line in (("conceptnet-tsv", tsv_line), ("jsonl", jsonl_row)):
            graph = kg.ingest([line(*row) for row in rows], fmt=fmt)
            assert every_triplet(graph) == every_triplet(built)
            assert graph.weights.tolist() == built.weights.tolist()
            assert graph.tail_ids.tolist() == built.tail_ids.tolist()
            assert graph.node_keys == built.node_keys
            assert graph.stats == counts


class TestShowerFixture:
    def test_counts(self, shower_graph):
        # 30 lines: one MotivatedByGoal filtered, one duplicate collapsed
        assert shower_graph.edge_count == 28
        assert shower_graph.stats.duplicates == 1
        assert shower_graph.stats.dropped_relation == 1

    def test_weights_survive_verbatim(self, shower_graph):
        t = next(
            t for t in every_triplet(shower_graph)
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
        keys = [t.key for t in incident(graph, "a")]
        assert ("x", "UsedFor", "a") in keys and ("a", "Causes", "b") in keys

    def test_ordering_weight_then_lex(self):
        graph = self.build()
        assert [t.weight for t in incident(graph, "a")] == [5.0, 3.0, 3.0]
        tied = [t for t in incident(graph, "a") if t.weight == 3.0]
        assert [t.relation for t in tied] == ["AtLocation", "Causes"]

    def test_unknown_node_empty(self):
        assert incident(self.build(), "zzz") == []

    def test_sampled_ranks_are_a_fresh_array(self):
        graph = self.build()
        first = kg.sample_subgraph(graph, ["a"], hops=1)
        first[:] = 0
        assert [t.weight for t in incident(graph, "a")] == [5.0, 3.0, 3.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcd"),
                st.sampled_from(["Causes", "UsedFor", "AtLocation"]),
                st.sampled_from("abcd"),
                st.sampled_from([0.5, 1.0, 2.0]),
            ),
            max_size=30,
        )
    )
    def test_neighbors_are_the_ranked_triplets_that_touch_the_node(self, rows):
        """Self-loops, weight ties and duplicate keys: a node's neighbors are
        the graph's triplets that touch it, in rank order, each once."""
        graph = KnowledgeGraph([Triplet(*row) for row in rows])
        triplets = every_triplet(graph)
        assert graph.weights.tolist() == [t.weight for t in triplets]
        assert [graph.node_keys[i] for i in graph.tail_ids.tolist()] == [t.tail for t in triplets]
        for node in "abcde":
            assert incident(graph, node) == [t for t in triplets if node in (t.head, t.tail)]


class TestSampleSubgraph:
    def chain(self, length=5):
        return KnowledgeGraph(
            [Triplet(f"n{i}", "Causes", f"n{i+1}", 1.0) for i in range(length)]
        )

    def test_hop_bound(self):
        graph = self.chain()
        sub = kg.sample_subgraph(graph, ["n0"], hops=2)
        heads = {graph.triplet(r).head for r in sub}
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
        assert sorted(graph.triplet(r).weight for r in sub) == [float(w) for w in range(4, kg.FANOUT_CAP + 4)]

    def test_non_whitelisted_edges_never_traversed(self):
        """A graph holds household relations only, so sampling has no other
        edge to follow: the constructor rejects one, naming it."""
        with pytest.raises(ValueError, match="'RelatedTo' is not a household relation"):
            KnowledgeGraph([Triplet("a", "RelatedTo", "b", 9.0), Triplet("a", "Causes", "c", 1.0)])

    def test_deterministic(self, shower_graph):
        a = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        b = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        assert a.tolist() == b.tolist()

    def test_ranks_give_triplets_sorted_by_weight_then_lex(self, shower_graph):
        sub = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        keys = [(-t.weight, t.head, t.relation, t.tail) for t in map(shower_graph.triplet, sub)]
        assert keys == sorted(keys)

    def test_hands_over_sorted_distinct_int_ranks(self, shower_graph):
        sub = kg.sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
        assert isinstance(sub, np.ndarray) and sub.ndim == 1 and sub.dtype.kind == "i"
        assert len(sub) and 0 <= sub[0] and sub[-1] < shower_graph.edge_count
        assert (np.diff(sub) > 0).all()

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
        graph = KnowledgeGraph(household)
        with mock.patch.object(kg, "FANOUT_CAP", cap):
            ranks = kg.sample_subgraph(graph, anchors, hops)
        want, _ = oracles.sample_subgraph_oracle(
            triplets, anchors, hops, cap, kg.HOUSEHOLD_RELATIONS
        )
        sub = [graph.triplet(r) for r in ranks]
        assert len(ranks) == len(want)  # the count a trace reports as the subgraph's size
        assert [t.key for t in sub] == [t.key for t in want]
        assert [t.weight for t in sub] == [t.weight for t in want]
        # Whatever the cap, no triplet lies past the hop bound: one endpoint
        # is closer than ``hops`` to an anchor along whitelisted edges.
        _, reach = oracles.sample_subgraph_oracle(
            triplets, anchors, hops, len(triplets) + 1, kg.HOUSEHOLD_RELATIONS
        )
        assert all(min(reach.get(t.head, hops), reach.get(t.tail, hops)) < hops for t in sub)


def _mesh(nodes=40, seed=0):
    """A seeded graph of ``4 * nodes`` rows over ``nodes`` nodes, whose
    neighbourhoods overlap."""
    rng = random.Random(seed)
    relations = sorted(kg.HOUSEHOLD_RELATIONS)
    return KnowledgeGraph(
        Triplet(f"n{rng.randrange(nodes)}", rng.choice(relations), f"n{rng.randrange(nodes)}",
                rng.choice([0.5, 1.0, 2.0]))
        for _ in range(4 * nodes)
    )


# overlapping anchor sets, an unknown anchor and a repeated one among them
_MESH_CALLS = [([f"n{i}", f"n{(i + 1) % 40}", f"n{3 * i % 40}", "ghost"], 2 + i % 2) for i in range(40)]
_MESH_CALLS += [([f"n{i}", f"n{i}"], 3) for i in range(0, 40, 5)]


class TestBallTable:
    """Each graph keeps a table of per-anchor balls; a sample is their union."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.dictionaries(
            st.tuples(
                st.sampled_from("abcdef"),
                st.sampled_from(["Causes", "UsedFor", "HasSubevent"]),
                st.sampled_from("abcdef"),
            ),
            st.sampled_from([0.5, 1.0, 2.0, 3.5]),
            max_size=20,
        ),
        calls=st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcdefz"), max_size=4),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_a_sequence_of_calls_gets_the_samples_of_an_empty_table(self, rows, calls):
        """One graph answers calls with repeated, overlapping and unknown
        anchors, hops of 0 and a cap patched per call: each sample is the
        oracle's and the sample of a fresh copy of the graph, whose table is
        empty, and writing into it changes no later sample."""
        triplets = [Triplet(h, r, t, w) for (h, r, t), w in rows.items()]
        graph = KnowledgeGraph(triplets)
        for anchors, hops, cap in calls:
            with mock.patch.object(kg, "FANOUT_CAP", cap):
                ranks = kg.sample_subgraph(graph, anchors, hops)
                fresh = kg.sample_subgraph(KnowledgeGraph(triplets), anchors, hops)
            want, _ = oracles.sample_subgraph_oracle(triplets, anchors, hops, cap, kg.HOUSEHOLD_RELATIONS)
            assert ranks.tolist() == fresh.tolist()
            assert [graph.triplet(r).key for r in ranks] == [t.key for t in want]
            ranks[:] = 0  # the caller's own array

    def test_an_anchor_is_walked_once_per_hops_and_cap(self):
        graph = _mesh()
        ids = graph._node_id
        with mock.patch.object(kg, "_ball", wraps=kg._ball) as walk:
            for _ in range(3):
                kg.sample_subgraph(graph, ["n1", "n2"], 2)
            kg.sample_subgraph(graph, ["n2", "n3", "n3"], 2)
            kg.sample_subgraph(graph, ["n2"], 3)
            with mock.patch.object(kg, "FANOUT_CAP", 1):
                kg.sample_subgraph(graph, ["n2"], 2)
        walked = sorted(call.args[1:] for call in walk.call_args_list)
        cap = kg.FANOUT_CAP
        assert walked == sorted([(ids["n1"], 2, cap), (ids["n2"], 2, cap), (ids["n3"], 2, cap),
                                 (ids["n2"], 3, cap), (ids["n2"], 2, 1)])

    def test_a_tiny_budget_clears_the_table_and_keeps_the_samples(self, monkeypatch):
        graph = _mesh()
        want = [kg.sample_subgraph(graph, anchors, hops).tolist() for anchors, hops in _MESH_CALLS]
        assert kg.ball_clears(graph) == 0
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", 2 * kg._BALL_ENTRY_BYTES)
        graph = _mesh()
        half = len(_MESH_CALLS) // 2
        got = [kg.sample_subgraph(graph, anchors, hops).tolist() for anchors, hops in _MESH_CALLS[:half]]
        clears = kg.ball_clears(graph)
        got += [kg.sample_subgraph(graph, anchors, hops).tolist() for anchors, hops in _MESH_CALLS[half:]]
        assert got == want
        assert 0 < clears < kg.ball_clears(graph)

    @pytest.mark.parametrize("budget", [None, 1_000], ids=["default", "small-budget"])
    def test_threads_sharing_a_graph_sample_as_one_thread_does(self, monkeypatch, budget):
        """Four threads sample overlapping anchor sets on one fresh graph,
        switching as often as the interpreter allows; each sample equals a
        one-thread run's, in each of three trials."""
        if budget is not None:
            monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", budget)
        calls = _MESH_CALLS * 3
        serial = [kg.sample_subgraph(_mesh(), anchors, hops).tolist() for anchors, hops in calls]
        threads = 4
        for trial in range(3):
            graph = _mesh()
            got = [None] * len(calls)
            start = threading.Barrier(threads, timeout=30)

            def work(i):
                start.wait()
                for j in range(i, len(calls), threads):
                    got[j] = kg.sample_subgraph(graph, *calls[j]).tolist()

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
                assert kg.ball_clears(graph) > 0

    def test_the_table_counts_the_bytes_it_holds(self):
        """The table's byte count, ranks plus ``_BALL_ENTRY_BYTES`` an entry,
        covers what tracemalloc sees it hold, and not by much more."""
        graph = _mesh(nodes=3000)
        kg.sample_subgraph(graph, [], 2)  # the table exists
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2000):
                kg.sample_subgraph(graph, [f"n{i}"], 2)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        table = kg._BALLS[graph]
        assert len(table.entries) == 2000
        assert held <= table.nbytes <= 1.25 * held


def test_load_graph_roundtrip(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text(
        json.dumps({"head": "a", "relation": "Causes", "tail": "b", "weight": 1.5}) + "\n"
    )
    graph = kg.load_graph(str(path), fmt="jsonl")
    assert graph.triplet(0).key == ("a", "Causes", "b")


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


@pytest.mark.parametrize("name, fmt", [("shower_graph.tsv", "conceptnet-tsv"), ("tv_graph.jsonl", "jsonl")])
def test_equal_keys_share_one_string(name, fmt):
    graph = kg.ingest(fixture_path(name), fmt=fmt)
    first = {}
    for t in every_triplet(graph):
        for text in (t.head, t.relation, t.tail):
            assert first.setdefault(text, text) is text, f"{text!r} is held by two string objects"
    assert len(first) < 3 * graph.edge_count  # some head, relation or tail repeats


def test_the_graph_holds_no_object_per_edge():
    """Edges live in the rank-order arrays; every other thing the graph
    holds has one entry per node or per relation at most."""
    graph = KnowledgeGraph(Triplet(h, r, t, 1.0) for h in "abc" for r in kg.HOUSEHOLD_RELATIONS for t in "abc")
    assert graph.edge_count == 81
    for name, value in vars(graph).items():
        if not isinstance(value, (np.ndarray, kg.IngestStats)):
            assert len(value) <= len(kg.HOUSEHOLD_RELATIONS), name


def test_rank_order_columns_match_the_triplets(shower_graph):
    triplets = every_triplet(shower_graph)
    assert shower_graph.weights.tolist() == [t.weight for t in triplets]
    assert [shower_graph.node_keys[i] for i in shower_graph.tail_ids.tolist()] == [t.tail for t in triplets]
    assert list(shower_graph.node_keys) == sorted({t.head for t in triplets} | {t.tail for t in triplets})
    assert not shower_graph.weights.flags.writeable and not shower_graph.tail_ids.flags.writeable


@pytest.mark.parametrize("fmt, line", [("conceptnet-tsv", tsv_line), ("jsonl", jsonl_row)])
def test_ingest_applies_the_row_rule_once_per_row(fmt, line):
    rows = [("a", "Causes", "b", 1.0), ("b", "UsedFor", "c", 2.0), ("a", "Causes", "b", 3.0), ("c", "Causes", "d", 0.0)]
    with mock.patch.object(kg, "_row", wraps=kg._row) as rule:
        graph = kg.ingest([line(*row) for row in rows], fmt=fmt)
    assert rule.call_count == len(rows)
    assert graph.edge_count == 2 and graph.stats.dropped_malformed == 1


@pytest.mark.parametrize("fmt, line", [("conceptnet-tsv", tsv_line), ("jsonl", jsonl_row)])
def test_a_chunk_of_good_rows_meets_the_row_rule_once_each(fmt, line):
    """All rows pass, so the chunk is read a chunk at a time, never line by
    line, and the count is the chunk path's own."""
    rows = [("a", "Causes", "b", 1.0), ("b", "UsedFor", "c", 2.0), ("a", "Causes", "b", 3.0), ("c", "Causes", "d", 4)]
    with mock.patch.object(kg, "_row", wraps=kg._row) as rule, \
            mock.patch.object(_files, "_parse_lines", wraps=_files._parse_lines) as per_line:
        graph = kg.ingest([line(*row) for row in rows], fmt=fmt, strict=True)
    assert rule.call_count == len(rows) and per_line.call_count == 0
    assert graph.edge_count == 3 and graph.stats.duplicates == 1


# keys with non-ASCII text, quotes, backslashes and control characters
_WRITTEN_KEYS = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f é漢')),
                        min_size=1, max_size=6)
_WRITTEN_WEIGHTS = st.one_of(
    st.sampled_from([5e-324, 1e16, 0.30000000000000004, 1.0, 2.5, 1e-7, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_WRITTEN_KEYS, st.sampled_from(sorted(kg.HOUSEHOLD_RELATIONS)), _WRITTEN_KEYS,
                          _WRITTEN_WEIGHTS), max_size=12))
def test_to_jsonl_writes_what_json_dumps_writes(rows):
    """``to_jsonl`` is byte-equal to ``json.dumps(row, sort_keys=True)`` per
    rank, and its text ingests back to the same graph."""
    graph = KnowledgeGraph(rows)
    text = graph.to_jsonl()
    want = "".join(
        json.dumps({"head": t.head, "relation": t.relation, "tail": t.tail, "weight": t.weight}, sort_keys=True) + "\n"
        for t in every_triplet(graph)
    )
    assert text == want
    again = kg.ingest(io.BytesIO(text.encode("utf-8")), fmt="jsonl", strict=True)
    assert every_triplet(again) == every_triplet(graph)
    assert again.weights.tobytes() == graph.weights.tobytes() and again.node_keys == graph.node_keys
