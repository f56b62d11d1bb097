"""Planner loop: config, prompt aggregation, termination, determinism."""

import dataclasses
import gc
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsplan import adaption, cli, kg, planner
from nsplan._files import write_json
from nsplan.adaption import select
from nsplan.admissible import AdmissibleSet, AdmissibleStep, translate_prompt
from nsplan.errors import ConfigError, TransportError
from nsplan.generation import (
    GenerationRequest,
    GenerationResult,
    KnowledgeFollowerGenerator,
    RemoteGenerator,
    ScriptedGenerator,
)
from nsplan.embeddings import HashEmbedding
from nsplan.kg import AdaptedTriplet, KnowledgeGraph, Triplet
from nsplan.planner import (
    TERMINATIONS,
    Iteration,
    PlannerConfig,
    PlanResult,
    PlanStep,
    knowledge_for_task,
    plan,
)

SCRIPTED_CONFIG = PlannerConfig(cos_keep_threshold=-1.0, edge_threshold=0.0)


class TestPlannerConfig:
    def test_defaults(self):
        cfg = PlannerConfig()
        assert cfg.theta == 0.7
        assert cfg.max_steps == 20
        assert cfg.hops == 3
        assert cfg.top_k == 10
        assert cfg.edge_threshold == 0.6
        assert cfg.concept_ratio == 3
        assert cfg.cos_keep_threshold == 0.4

    def test_exactly_seven_fields(self):
        names = [f.name for f in dataclasses.fields(PlannerConfig)]
        assert names == [
            "theta",
            "max_steps",
            "hops",
            "top_k",
            "edge_threshold",
            "concept_ratio",
            "cos_keep_threshold",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": -0.1},
            {"theta": 1.5},
            {"max_steps": 0},
            {"hops": 0},
            {"top_k": -1},
            {"edge_threshold": -0.1},
            {"concept_ratio": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            PlannerConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PlannerConfig().theta = 0.5

    def test_adaption_view(self):
        # select() reads top_k and concept_ratio straight off PlannerConfig;
        # the defaults would keep six nodes here, this config keeps five.
        cfg = PlannerConfig(top_k=5, edge_threshold=0.0, concept_ratio=3, cos_keep_threshold=-1.0)
        triplets = tuple(
            AdaptedTriplet("h", "UsedFor", f"n{i}", 1.0, 1.0 + 0.1 * i) for i in range(8)
        )
        got = select(triplets, cfg, "one two")
        want = oracles.select_oracle(
            triplets, ["one", "two"], top_k=5, edge_threshold=0.0, cos_keep_threshold=-1.0,
            concept_ratio=3,
        )
        assert list(got) == want
        assert len(want) == 5


class TestPromptRendering:
    def test_matches_golden_fixture(self, fixture_path):
        request = GenerationRequest(
            "Watch TV",
            ("find remote control", "switch on television", "sit on sofa"),
            ("find remote control", "switch on television"),
        )
        with open(fixture_path("golden_prompt.txt"), encoding="utf-8") as fh:
            assert request.prompt == fh.read().rstrip("\n")

    def test_accepts_translated_prompt(self, household_admissible, hash_embedder):
        grounded = translate_prompt(
            ("find the remote", "sit down"), household_admissible, hash_embedder
        )
        request = GenerationRequest("T", grounded)
        assert request.knowledge == grounded
        assert request.prompt.splitlines()[1:] == [f"Step: {line}." for line in grounded]

    def test_history_is_one_indexed(self):
        rendered = GenerationRequest("T", (), ("a", "b")).prompt
        assert rendered.splitlines()[1:] == ["Step 1: a.", "Step 2: b."]

    def test_no_history_no_trailing_lines(self):
        assert GenerationRequest("T", ("k",)).prompt == "Task: T\nStep: k."


class TestPlanLoop:
    def test_follower_schedule_below_threshold(self, tv_graph, household_admissible, hash_embedder):
        generator = KnowledgeFollowerGenerator(schedule=(1.0, 1.0, 0.5))
        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            generator,
            hash_embedder,
            config=PlannerConfig(theta=0.7, cos_keep_threshold=-1.0, edge_threshold=0.0),
        )
        assert len(result.steps) == 2
        assert result.termination == "BelowThreshold"
        assert len(result.trace) == 3
        assert result.trace[-1]["accepted"] is False

    def test_never_exceeds_max_steps(self, tv_graph, household_admissible, hash_embedder):
        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            KnowledgeFollowerGenerator(schedule=(1.0,)),
            hash_embedder,
            config=PlannerConfig(
                theta=0.0, max_steps=2, cos_keep_threshold=-1.0, edge_threshold=0.0
            ),
        )
        assert len(result.steps) == 2
        assert result.termination == "MaxSteps"

    def test_generator_exhausted(self, tv_graph, household_admissible, hash_embedder):
        # theta 0 accepts everything, so the follower runs out of knowledge
        # lines before max_steps.
        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            KnowledgeFollowerGenerator(schedule=(1.0,)),
            hash_embedder,
            config=PlannerConfig(
                theta=0.0, max_steps=20, cos_keep_threshold=-1.0, edge_threshold=0.0
            ),
        )
        assert result.termination == "GeneratorExhausted"
        assert 0 < len(result.steps) < 20

    def test_steps_are_admissible(self, tv_graph, household_admissible, hash_embedder):
        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            KnowledgeFollowerGenerator(schedule=(1.0,)),
            hash_embedder,
            config=PlannerConfig(theta=0.0, cos_keep_threshold=-1.0, edge_threshold=0.0),
        )
        for step in result.steps:
            assert step.text in household_admissible

    def test_scripted_two_step_plan(self, tv_graph, household_admissible, hash_embedder, fixture_path):
        generator = ScriptedGenerator(fixture_path("scripted_responses.json"))
        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            generator,
            hash_embedder,
            config=SCRIPTED_CONFIG,
        )
        assert [s.text for s in result.steps] == ["find remote control", "switch on television"]
        assert result.termination == "GeneratorExhausted"
        assert [round(e["generation_confidence"], 6) for e in result.trace] == [0.9, 0.8]

    def test_reruns_identical(self, tv_graph, household_admissible, hash_embedder, fixture_path):
        def run():
            generator = ScriptedGenerator(fixture_path("scripted_responses.json"))
            return plan(
                "Watch TV",
                tv_graph,
                household_admissible,
                generator,
                hash_embedder,
                config=SCRIPTED_CONFIG,
            ).dumps()

        assert run() == run()

    def test_effective_confidence_is_product(self, tv_graph, household_admissible, hash_embedder):
        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            KnowledgeFollowerGenerator(schedule=(0.8,)),
            hash_embedder,
            config=PlannerConfig(theta=0.0, cos_keep_threshold=-1.0, edge_threshold=0.0),
        )
        for entry in result.trace:
            want = entry["generation_confidence"] * max(entry["translation_cosine"], 0.0)
            assert entry["effective_confidence"] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("logprobs", [None, [-0.01]])
    def test_trace_records_a_defaulted_confidence(
        self, tv_graph, household_admissible, hash_embedder, loopback, logprobs
    ):
        def handler(payload):
            choice = {"text": "walk to sofa"}
            if logprobs is not None:
                choice["logprobs"] = {"token_logprobs": logprobs}
            return 200, {"choices": [choice]}

        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            RemoteGenerator(loopback.serve(handler), model="m"),
            hash_embedder,
            config=PlannerConfig(theta=0.0, max_steps=3, cos_keep_threshold=-1.0, edge_threshold=0.0),
        )
        assert len(result.trace) == 3
        if logprobs is None:
            assert all(e["confidence_defaulted"] is True for e in result.trace)
            assert '"confidence_defaulted": true' in result.dumps()
        else:
            assert not any("confidence_defaulted" in e for e in result.trace)

    def test_transport_error_carries_partial_trace(self, tv_graph, household_admissible, hash_embedder):
        class FlakyGenerator:
            def __init__(self):
                self.calls = 0
                self.inner = KnowledgeFollowerGenerator(schedule=(1.0,))

            def next_step(self, request):
                self.calls += 1
                if self.calls > 2:
                    raise TransportError("boom", endpoint="http://svc")
                return self.inner.next_step(request)

        with pytest.raises(TransportError) as err:
            plan(
                "Watch TV",
                tv_graph,
                household_admissible,
                FlakyGenerator(),
                hash_embedder,
                config=PlannerConfig(theta=0.0, cos_keep_threshold=-1.0, edge_threshold=0.0),
            )
        assert len(err.value.partial_trace) == 2

    def test_generator_gets_structured_prompt(self, tv_graph, household_admissible, hash_embedder):
        class Recording(KnowledgeFollowerGenerator):
            def __init__(self):
                super().__init__(schedule=(1.0,))
                self.requests = []

            def next_step(self, request):
                self.requests.append(request)
                return super().next_step(request)

        generator = Recording()
        result = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            generator,
            hash_embedder,
            config=SCRIPTED_CONFIG,
        )
        assert generator.requests[0].history == ()
        for i, request in enumerate(generator.requests):
            assert request.task == "Watch TV"
            assert request.knowledge == generator.requests[0].knowledge
            assert request.history == tuple(s.text for s in result.steps[:i])

    def test_task_text_cannot_plant_knowledge_lines(
        self, tv_graph, household_admissible, hash_embedder
    ):
        # A task name that looks like a rendered knowledge line must stay
        # task text: every generated step comes from the grounded knowledge.
        # This task anchors no graph node, so nothing may be generated.
        task = "Watch TV\nStep: sit on sofa."
        config = PlannerConfig(theta=0.0, cos_keep_threshold=-1.0, edge_threshold=0.0)
        knowledge = knowledge_for_task(task, tv_graph, hash_embedder, config)
        grounded = translate_prompt(knowledge, household_admissible, hash_embedder)
        result = plan(
            task,
            tv_graph,
            household_admissible,
            KnowledgeFollowerGenerator(schedule=(1.0,)),
            hash_embedder,
            config=config,
        )
        for entry in result.trace:
            assert entry["generated_text"] in grounded

    def test_knowledge_computed_once(self, tv_graph, household_admissible, monkeypatch):
        from nsplan import planner as planner_mod
        from nsplan.embeddings import HashEmbedding

        calls = []
        original = planner_mod.knowledge_for_task

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(planner_mod, "knowledge_for_task", counting)
        plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            KnowledgeFollowerGenerator(schedule=(1.0,)),
            HashEmbedding(),
            config=PlannerConfig(theta=0.0, cos_keep_threshold=-1.0, edge_threshold=0.0),
        )
        assert len(calls) == 1


class TestKnowledgeForTask:
    def test_grounding_pipeline(self, tv_graph, hash_embedder):
        prompt = knowledge_for_task("Watch TV", tv_graph, hash_embedder, SCRIPTED_CONFIG)
        lines = list(prompt)
        assert "find remote control" in lines
        assert "switch on television" in lines

    def test_task_without_graph_anchor_yields_empty(self, tv_graph, hash_embedder):
        prompt = knowledge_for_task(
            "juggle flaming torches", tv_graph, hash_embedder, SCRIPTED_CONFIG
        )
        assert list(prompt) == []

    def test_a_plan_builds_a_triplet_only_for_each_adapted_survivor(
        self, shower_graph, household_admissible, hash_embedder, monkeypatch
    ):
        """The plan path reads the graph as columns: nothing on it builds
        every edge, and adaption builds one Triplet per triplet it keeps."""
        built, survivors = [], []
        triplets, adapt_weights = KnowledgeGraph.triplets, adaption.adapt_weights

        def counted_triplets(graph, ranks, *adapted):
            built.extend(ranks)
            return triplets(graph, ranks, *adapted)

        def counted_adapt_weights(*args):
            kept = adapt_weights(*args)
            survivors.extend(kept)
            return kept

        monkeypatch.setattr(KnowledgeGraph, "triplets", counted_triplets)
        monkeypatch.setattr(adaption, "adapt_weights", counted_adapt_weights)
        # the task's cosines straddle the 0.1 gate on this fixture
        config = PlannerConfig(edge_threshold=0.0, cos_keep_threshold=0.1)
        result = plan("bathe and get clean", shower_graph, household_admissible,
                      KnowledgeFollowerGenerator(schedule=(1.0,)), hash_embedder, config=config)
        assert result.steps
        assert 0 < len(built) == len(survivors) < shower_graph.edge_count


ORACLE_NODES = ["soap", "towel", "tub", "sink", "hair", "water"]
# "find soap", "Find soap" and "find soap!" embed to one vector: the lexicographic tie-break picks
ORACLE_STEPS = ["find soap", "Find soap", "find soap!", "grab towel", "walk to sink", "wash hair",
                "turn on water", "sit in tub", "use soap", "dry hair with towel"]


@st.composite
def plan_cases(draw):
    """(task, triplets, admissible texts, schedule, config, fanout cap): a
    graph over six nodes with weight ties, self-loops and repeated keys, a
    cap of 1-3 most nodes exceed, admissible steps with equal embeddings,
    and schedules and configs on both sides of theta and the gates."""
    triplets = [
        Triplet(*row)
        for row in draw(st.lists(st.tuples(
            st.sampled_from(ORACLE_NODES), st.sampled_from(sorted(kg.HOUSEHOLD_RELATIONS)),
            st.sampled_from(ORACLE_NODES), st.sampled_from([0.5, 1.0, 2.0]),
        ), min_size=1, max_size=24))
    ]
    nodes = sorted({t.head for t in triplets} | {t.tail for t in triplets})
    anchors = draw(st.lists(st.sampled_from([*nodes, "ghost"]), min_size=1, max_size=3, unique=True))
    texts = draw(st.lists(st.sampled_from(ORACLE_STEPS), min_size=1, max_size=6, unique=True))
    schedule = tuple(draw(st.lists(st.sampled_from([1.0, 0.9, 0.7, 0.5, 0.0]), min_size=1, max_size=4)))
    config = PlannerConfig(
        theta=draw(st.sampled_from([0.0, 0.5, 0.7])),
        max_steps=draw(st.integers(1, 6)),
        hops=draw(st.integers(1, 3)),
        top_k=draw(st.integers(1, 6)),
        edge_threshold=draw(st.sampled_from([0.0, 0.0, 0.6, 1.5])),
        concept_ratio=draw(st.integers(1, 3)),
        cos_keep_threshold=draw(st.sampled_from([-1.0, -1.0, 0.0, 0.4])),
    )
    cap = draw(st.sampled_from([1, 2, 3, kg.FANOUT_CAP]))
    return " and ".join(anchors), triplets, texts, schedule, config, cap


class TestPlanOracle:
    @settings(max_examples=300, deadline=None)
    @given(plan_cases())
    def test_plan_matches_the_stage_oracles(self, case):
        task, triplets, texts, schedule, config, cap = case
        provider = HashEmbedding(dim=64)
        admissible = AdmissibleSet([AdmissibleStep(text) for text in texts])
        with mock.patch.object(kg, "FANOUT_CAP", cap):
            got = plan(task, KnowledgeGraph(triplets), admissible, KnowledgeFollowerGenerator(schedule),
                       provider, config)
            want = oracles.plan_oracle(task, triplets, texts, schedule, config, provider)
        assert got.to_json() == want


class TestPlanResult:
    def _result(self):
        return PlanResult(
            task="T",
            iterations=(
                Iteration("go walk", 1.0, "walk", 0.9, True, False),
                Iteration("sit down", 0.8, "sit", 1.0, True, True),
            ),
            termination="MaxSteps",
        )

    def test_dumps_holds_every_field(self):
        assert json.loads(self._result().dumps()) == {
            "task": "T",
            "steps": [{"text": "walk", "confidence": 0.9}, {"text": "sit", "confidence": 0.8}],
            "termination": "MaxSteps",
            "trace": [
                {"iteration": 1, "generated_text": "go walk", "generation_confidence": 1.0,
                 "translated_text": "walk", "translation_cosine": 0.9, "effective_confidence": 0.9,
                 "accepted": True},
                {"iteration": 2, "generated_text": "sit down", "generation_confidence": 0.8,
                 "translated_text": "sit", "translation_cosine": 1.0, "effective_confidence": 0.8,
                 "accepted": True, "confidence_defaulted": True},
            ],
        }

    def test_steps_are_the_accepted_iterations(self):
        rejected = Iteration("stand", 0.5, "stand up", -0.3, False, False)
        result = dataclasses.replace(
            self._result(), iterations=self._result().iterations + (rejected,), termination="BelowThreshold"
        )
        assert result.steps == (PlanStep("walk", 0.9), PlanStep("sit", 0.8))
        assert len(result) == 2 and len(result.trace) == 3
        assert result.trace[-1]["accepted"] is False and result.trace[-1]["effective_confidence"] == 0.0

    def test_editing_a_trace_leaves_the_plan_as_it_was(self, tv_graph, household_admissible, hash_embedder):
        config = PlannerConfig(theta=0.7, cos_keep_threshold=-1.0, edge_threshold=0.0)
        result = plan("Watch TV", tv_graph, household_admissible, KnowledgeFollowerGenerator(), hash_embedder, config)
        before = result.dumps()
        result.trace[0]["accepted"] = False
        result.trace[1]["translated_text"] = "fly"
        result.to_json()["trace"][0]["iteration"] = 7
        for entry in result.trace:
            entry.clear()
        assert result.dumps() == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.termination = "GeneratorExhausted"

    def test_plan_file_reads_back_through_the_eval_reader(self, tmp_path):
        path = tmp_path / "plan.json"
        write_json(path, {"id": "0001", **self._result().to_json()})
        assert cli._read_prediction(path) == ("0001", ["walk", "sit"])

    def test_rejects_unknown_termination(self):
        with pytest.raises(ValueError):
            PlanResult(task="T", iterations=(), termination="GaveUp")

    def test_a_kept_plan_retains_few_bytes_per_trace_entry(self, tv_graph, household_admissible, hash_embedder):
        # a benchmark keeps every plan it makes, so a larger plan shows as
        # resident memory; the records take about 125 B an entry, where
        # a dict per entry and a stored step took about 400
        texts = [s.text for s in household_admissible][::13][:24]
        graph = KnowledgeGraph(
            [tv_graph.triplet(r) for r in range(tv_graph.edge_count)]
            + [Triplet("watch_tv", "HasSubevent", t.replace(" ", "_"), 1.0 + i / 10) for i, t in enumerate(texts)]
        )
        config = PlannerConfig(theta=0.0, cos_keep_threshold=-1.0, edge_threshold=0.0, top_k=30, concept_ratio=15)

        def follow():
            return plan("Watch TV", graph, household_admissible, KnowledgeFollowerGenerator(), hash_embedder, config)

        follow()  # warms the memos, which a kept plan does not own
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = follow()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.termination == "MaxSteps" and len(result.trace) == 20
        assert retained <= 160 * len(result.trace)

    def test_a_repeated_plan_holds_the_records_of_the_first(self, tv_graph, household_admissible, hash_embedder):
        config = PlannerConfig(theta=0.7, cos_keep_threshold=-1.0, edge_threshold=0.0)
        first, again = (
            plan("Watch TV", tv_graph, household_admissible, KnowledgeFollowerGenerator(), hash_embedder, config)
            for _ in range(2)
        )
        assert again.iterations and again.dumps() == first.dumps()
        assert all(a is b for a, b in zip(again.iterations, first.iterations))

    def test_records_equal_in_value_but_not_in_object_are_not_shared(self):
        def record(confidence, cosine):
            return Iteration("go walk", confidence, "walk", cosine, False, False)

        with mock.patch.dict(planner._RECORDS, clear=True):
            assert planner._shared(record(0.0, 0.5)).generation_confidence == 0.0
            negative = record(-0.0, 0.5)
            assert planner._shared(negative) is negative
            assert json.loads(PlanResult("T", (negative,), "BelowThreshold").dumps())["trace"][0][
                "generation_confidence"] == -0.0
            whole = record(1, 0.5)
            assert planner._shared(record(1.0, 0.5)) == whole and planner._shared(whole) is whole
            assert planner._shared(record(1, 0.5)) is whole  # the newer record took the older one's place

    def test_the_record_table_is_cleared_at_its_cap(self):
        with mock.patch.dict(planner._RECORDS, clear=True), mock.patch.object(planner, "RECORDS_CAP", 2):
            records = [Iteration(f"step {i}", 1.0, "walk", 0.5, True, False) for i in range(3)]
            for r in records:
                assert planner._shared(r) is r
            assert list(planner._RECORDS) == records[2:]

    def test_terminations_tuple(self):
        assert TERMINATIONS == ("MaxSteps", "BelowThreshold", "GeneratorExhausted")

    def test_len_and_texts(self):
        result = self._result()
        assert len(result) == 2
        assert [s.text for s in result.steps] == ["walk", "sit"]
