"""Acceptance gate: one test per shipped guarantee, one printed verdict line
each. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 01 is expected to fail: the published knowledge-prompt listing for
the take-a-shower subgraph is not derivable from the stated rules (see the
per-line diff in the assertion message). It is kept red on purpose rather
than weakening the traversal contract the rest of the suite freezes.
"""

import collections
import dataclasses
import functools
import json
import os
import random
import time

import numpy as np
import pytest

import conftest
import oracles
from nsplan import cli
from nsplan.adaption import adapt_weights, select
from nsplan.admissible import load_admissible_set, translate
from nsplan.causal import (
    confounded_example,
    frontdoor_estimate,
    frontdoor_gap,
    random_scm,
    surgery_distribution,
)
from nsplan.counterfactual import (
    intervene_final_goal,
    intervene_initial_configuration,
    intervene_intermediate_step,
)
from nsplan.embeddings import HashEmbedding, cosine, embed
from nsplan.generation import KnowledgeFollowerGenerator
from nsplan.kg import AdaptedTriplet, KnowledgeGraph, Triplet, sample_subgraph, surface
from nsplan.metrics import (
    pearson,
    rouge1_f1,
    sentence_bleu,
    wmd,
    wmd_transport,
)
from nsplan.planner import PlannerConfig, plan
from nsplan.programs import (
    StructuredStep,
    load_task_dataset,
    parse_robothow_step,
    render_step,
)


def _criterion(number, description):
    """Print one ACCEPTANCE verdict line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} FAIL  {description}")
                raise
            print(f"\nACCEPTANCE {number:02d} PASS  {description}")

        return wrapper

    return deco


@_criterion(1, "published take-a-shower knowledge prompt reproduced verbatim")
def test_criterion_01_published_prompt_verbatim(shower_graph, fixture_path):
    from nsplan.verbalize import build_knowledge_prompt

    with open(fixture_path("expected_pg_published.txt"), encoding="utf-8") as fh:
        expected = [line.rstrip("\n") for line in fh if line.strip()]
    assert len(expected) == 18

    start = time.time()
    ranks = sample_subgraph(shower_graph, ["take_a_shower"], hops=3)
    adapted = adapt_weights(
        shower_graph, ranks, "take a shower", HashEmbedding(),
        PlannerConfig(edge_threshold=0.0, cos_keep_threshold=-1.0),
    )
    prompt = build_knowledge_prompt(adapted, max_depth=3)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"prompt construction took {elapsed:.3f}s"

    got = collections.Counter(prompt)
    want = collections.Counter(expected)
    if got != want:
        missing = sorted((want - got).elements())
        extra = sorted((got - want).elements())
        detail = ["knowledge prompt line multiset differs from the published listing:"]
        detail += [f"  missing: {line!r}" for line in missing]
        detail += [f"  extra:   {line!r}" for line in extra]
        raise AssertionError("\n".join(detail))


@_criterion(2, "planner defaults are the published configuration")
def test_criterion_02_default_configuration():
    cfg = PlannerConfig()
    assert cfg.theta == 0.7
    assert cfg.max_steps == 20
    assert cfg.hops == 3
    assert cfg.concept_ratio == 3
    assert cfg.cos_keep_threshold == 0.4
    assert cfg.edge_threshold == 0.6
    assert cfg.top_k == 10
    assert {f.name for f in dataclasses.fields(PlannerConfig)} == {
        "theta",
        "max_steps",
        "hops",
        "top_k",
        "edge_threshold",
        "concept_ratio",
        "cos_keep_threshold",
    }


@_criterion(3, "front-door estimate equals graph surgery on 500 random SCMs")
def test_criterion_03_frontdoor_identity():
    start = time.time()
    worst = 0.0
    for seed in range(500):
        scm = random_scm(seed)
        assert all(len(v) <= 4 for v in scm.supports.values())
        worst = max(worst, frontdoor_gap(scm))
    assert worst < 1e-9, f"worst front-door gap {worst:.3e}"

    demo = confounded_example()
    joint = demo.observational_joint()
    naive = joint.conditional_s_given_t("t1")
    truth = surgery_distribution(demo, {"T": "t1", "S_prev": "v0"})
    confounding = max(abs(naive[s] - truth[s]) for s in demo.supports["S"])
    assert confounding >= 0.1, f"confounding gap only {confounding:.3f}"
    estimate = frontdoor_estimate(joint, {"T": "t1", "S_prev": "v0"})
    recovery = max(abs(estimate[s] - truth[s]) for s in demo.supports["S"])
    assert recovery < 1e-9, f"front-door recovery gap {recovery:.3e}"

    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@_criterion(4, "translation closure matches the exhaustive argmax oracle on 10k cases")
def test_criterion_04_translation_closure(household_admissible):
    provider = HashEmbedding()
    steps = list(household_admissible.steps)[::5]  # 64 candidates
    subset = type(household_admissible)(steps)
    candidate_texts = [s.text for s in subset.steps]
    memo = {}

    class View:
        def vector(self, text):
            vec = memo.get(text)
            if vec is None:
                vec = embed(provider, text)
                memo[text] = vec
            return vec

    view = View()
    words = (
        "walk sit find grab watch switch turn look television sofa computer "
        "chair light bathroom kitchen on off to the remote"
    ).split()
    rng = random.Random(20240817)

    start = time.time()
    for case in range(10_000):
        if case % 10 == 0:
            text = rng.choice(candidate_texts)  # exact members mixed in
        else:
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
        step, cos = translate(text, subset, provider)
        assert step.text in subset
        want_text, want_cos = oracles.translate_scan_oracle(text, candidate_texts, view)
        assert step.text == want_text, (case, text)
        assert cos == want_cos, (case, text)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@_criterion(5, "edge adaption bounds, selection oracle, and shift invariance")
def test_criterion_05_adaption_properties():
    provider = HashEmbedding(dim=64)
    nodes = ["soap", "towel", "shower", "water", "wash_hair", "clean", "shampoo"]
    relations = ["HasSubevent", "HasPrerequisite", "UsedFor"]
    rng = random.Random(5150)

    for trial in range(200):
        triplets = []
        seen = set()
        for _ in range(rng.randint(1, 14)):
            key = (rng.choice(nodes), rng.choice(relations), rng.choice(nodes))
            if key in seen:
                continue
            seen.add(key)
            triplets.append(Triplet(*key, rng.uniform(0.0, 8.0)))
        graph = KnowledgeGraph(triplets)
        sub = [graph.triplet(r) for r in range(graph.edge_count)]
        task = " ".join(rng.choice(nodes).replace("_", " ") for _ in range(rng.randint(1, 4)))

        # the oracle's input: every triplet adapted, none gated
        task_vec = embed(provider, task)
        adapted = tuple(
            AdaptedTriplet(
                t.head, t.relation, t.tail, t.weight,
                t.weight + cosine(embed(provider, surface(t.tail)), task_vec),
            )
            for t in sub
        )
        for t in adapted:
            assert -1.0 <= t.adapted_weight - t.weight <= 1.0

        cfg = PlannerConfig(
            top_k=rng.randint(0, 8),
            edge_threshold=rng.uniform(0.0, 2.0),
            concept_ratio=rng.randint(1, 4),
            cos_keep_threshold=rng.uniform(-1.0, 0.5),
        )
        got = select(adapt_weights(graph, np.arange(graph.edge_count), task, provider, cfg), cfg, task)
        want = oracles.select_oracle(
            adapted,
            task.split(),
            top_k=cfg.top_k,
            edge_threshold=cfg.edge_threshold,
            cos_keep_threshold=cfg.cos_keep_threshold,
            concept_ratio=cfg.concept_ratio,
        )
        assert list(got) == want, trial

        # Constant shift: same retained nodes in the same output order.
        shift = rng.uniform(0.1, 2.0)
        shifted = tuple(
            AdaptedTriplet(t.head, t.relation, t.tail, t.weight, t.adapted_weight + shift)
            for t in adapted
        )
        base_keys = [t.key for t in select(adapted, cfg, task)]
        shifted_keys = [t.key for t in select(shifted, cfg, task)]
        assert base_keys == shifted_keys, trial


@_criterion(6, "threshold-driven termination and byte-identical reruns")
def test_criterion_06_planning_loop(tv_graph, household_admissible, tmp_path):
    provider = HashEmbedding()
    config = PlannerConfig(theta=0.7, cos_keep_threshold=-1.0, edge_threshold=0.0)

    result = plan(
        "Watch TV",
        tv_graph,
        household_admissible,
        KnowledgeFollowerGenerator(schedule=(1.0, 1.0, 0.5)),
        provider,
        config=config,
    )
    assert len(result.steps) == 2, [s.text for s in result.steps]
    assert result.termination == "BelowThreshold"

    for max_steps in (1, 2, 5):
        capped = plan(
            "Watch TV",
            tv_graph,
            household_admissible,
            KnowledgeFollowerGenerator(schedule=(1.0,)),
            provider,
            config=PlannerConfig(
                theta=0.0, max_steps=max_steps, cos_keep_threshold=-1.0, edge_threshold=0.0
            ),
        )
        assert len(capped.steps) <= max_steps

    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    out = tmp_path / "rerun"
    argv = [
        "plan",
        "--graph", os.path.join(fixtures, "tv_graph.jsonl"),
        "--graph-format", "jsonl",
        "--dataset", os.path.join(fixtures, "watch_tv.jsonl"),
        "--admissible", os.path.join(fixtures, "admissible_household.json"),
        "--theta", "0.0",
        "--cos-keep-threshold", "-1.0",
        "--edge-threshold", "0.0",
        "--out", str(out),
    ]

    def snapshot():
        assert cli.main(argv) == 0
        tree = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                tree[name] = fh.read()
        return tree

    first, second = snapshot(), snapshot()
    assert set(first) == set(second)
    for name in first:
        if name == "manifest.json":
            a, b = json.loads(first[name]), json.loads(second[name])
            a.pop("timing"), b.pop("timing")
            assert a == b
        else:
            assert first[name] == second[name], f"{name} differs between reruns"


@_criterion(7, "metric identities, worked ROUGE value, exact transport, Pearson poles")
def test_criterion_07_metrics(hash_embedder):
    assert sentence_bleu("sit on sofa", "sit on sofa") == pytest.approx(1.0, abs=1e-12)
    assert rouge1_f1("sit on sofa", "sit on sofa") == 1.0
    assert wmd("sit on sofa", "sit on sofa", hash_embedder) == (0.0, 1.0)
    assert rouge1_f1("aaa bbb", "ccc ddd") == 0.0

    got = rouge1_f1("walk to bathroom", "walk to the bathroom")
    assert got == pytest.approx(6.0 / 7.0, abs=1e-12)

    for pred, ref in [
        ("soap water", "hair towel"),
        ("soap water towel", "hair sofa"),
        ("walk walk to sofa", "sit on the sofa"),
    ]:
        t = wmd_transport(pred, ref, hash_embedder)
        assert np.allclose(t.plan.sum(axis=1), t.weights_pred, atol=1e-9)
        assert np.allclose(t.plan.sum(axis=0), t.weights_ref, atol=1e-9)
        best = oracles.transport_vertex_oracle(
            list(t.weights_pred), list(t.weights_ref), t.cost.tolist()
        )
        assert t.distance == pytest.approx(best, abs=1e-9)

    assert pearson([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0, abs=1e-12)


@_criterion(8, "counterfactual constructions reproduce the published examples")
def test_criterion_08_counterfactual_examples(fixture_path):
    samples = load_task_dataset(fixture_path("counterfactual_tasks.jsonl"))
    by_task = {s.task: s for s in samples}

    watch = intervene_initial_configuration(by_task["Watch TV"], "bedroom")
    assert watch.modified.task == "Watch TV in bedroom"
    assert watch.modified.reference_plan[0] == "walk to bedroom"
    assert watch.modified.reference_plan[1:] == by_task["Watch TV"].reference_plan

    work = by_task["Work"]
    seed = next(
        s
        for s in range(1000)
        if intervene_intermediate_step(work, s).payload == "Find computer"
    )
    pinned = intervene_intermediate_step(work, seed)
    assert pinned.modified.task == "Work (Find Computer)"
    assert pinned.modified.reference_plan == work.reference_plan

    light, clean = by_task["Turn light off"], by_task["Clean"]
    joined = intervene_final_goal(light, clean)
    assert joined.modified.task == "Turn light off and Clean"
    assert len(joined.modified.reference_plan) == len(light.reference_plan) + len(
        clean.reference_plan
    )
    assert joined.modified.reference_plan == light.reference_plan + clean.reference_plan


@_criterion(9, "structured step grammar round-trips and parses the demo program")
def test_criterion_09_program_grammar(fixture_path):
    rng = random.Random(909)
    actions = ["Walk", "Find", "Grab", "Sit", "SwitchOn", "Watch", "LookAt", "PutBack"]
    objects = ["TELEVISION", "SOFA", "COMPUTER", "HOME_OFFICE", "CHAIR", "LIGHT_SWITCH"]
    for _ in range(200):
        step = StructuredStep(
            action=rng.choice(actions),
            object=rng.choice(objects),
            instance=rng.randint(1, 99),
        )
        assert parse_robothow_step(render_step(step, style="dataset")) == step

    samples = load_task_dataset(fixture_path("watch_tv.jsonl"))
    watch = next(s for s in samples if s.task == "Watch TV")
    parsed = [parse_robothow_step(line) for line in watch.reference_plan]
    assert len(parsed) == 5
    assert [p.action for p in parsed] == ["Walk", "SwitchOn", "Walk", "Sit", "Watch"]
    assert [p.object for p in parsed] == ["TELEVISION"] * 2 + ["SOFA"] * 2 + ["TELEVISION"]


@_criterion(10, "remote end-to-end is opt-in; the default suite stays offline")
def test_criterion_10_offline_by_default():
    assert os.environ.get("NSPLAN_API_KEY") is None or True  # key alone must not enable traffic
    if not os.environ.get("NSPLAN_REMOTE_TESTS"):
        # The default run sends real HTTP, but only to the loopback service:
        # conftest records the host of every socket connect, and runs this
        # test last so the record covers the whole session.
        remote = sorted(set(conftest.CONNECTED_HOSTS) - {"127.0.0.1", "::1"})
        assert not remote, f"the offline suite connected to {remote}"


@pytest.mark.skipif(
    not os.environ.get("NSPLAN_REMOTE_TESTS"),
    reason="remote e2e is opt-in: set NSPLAN_REMOTE_TESTS=1 and NSPLAN_REMOTE_ENDPOINT",
)
def test_remote_end_to_end(tv_graph, household_admissible):
    from nsplan.generation import RemoteGenerator

    endpoint = os.environ["NSPLAN_REMOTE_ENDPOINT"]
    generator = RemoteGenerator(
        endpoint=endpoint,
        model=os.environ.get("NSPLAN_REMOTE_MODEL", "text-davinci-003"),
        api_key=os.environ.get("NSPLAN_API_KEY"),
    )
    result = plan(
        "Watch TV",
        tv_graph,
        household_admissible,
        generator,
        HashEmbedding(),
        config=PlannerConfig(cos_keep_threshold=-1.0, edge_threshold=0.0),
    )
    assert result.termination in ("MaxSteps", "BelowThreshold", "GeneratorExhausted")
    for step in result.steps:
        assert step.text in household_admissible
