"""Counterfactual task construction: the three intervention families."""

import collections
import json

import pytest

from nsplan.counterfactual import (
    KINDS,
    CounterfactualSample,
    capitalize_words,
    intervene_final_goal,
    intervene_initial_configuration,
    intervene_intermediate_step,
)
from nsplan._files import write_jsonl
from nsplan.programs import TaskSample

WATCH_TV = TaskSample(
    task="Watch TV",
    reference_plan=(
        "walk to living room",
        "find remote control",
        "grab remote control",
        "find television",
        "switch on television",
        "find sofa",
        "sit on sofa",
        "watch television",
    ),
    domain="robothow",
)

WORK = TaskSample(
    task="Work",
    reference_plan=(
        "walk to home office",
        "find desk",
        "find chair",
        "sit on chair",
        "find computer",
        "switch on computer",
        "look at computer",
        "type on keyboard",
    ),
    domain="robothow",
)


class TestCapitalizeWords:
    @pytest.mark.parametrize(
        "raw,want",
        [
            ("find computer", "Find Computer"),
            ("switch on TV", "Switch On TV"),
            ("walk", "Walk"),
            ("", ""),
        ],
    )
    def test_cases(self, raw, want):
        assert capitalize_words(raw) == want


class TestInitialConfiguration:
    def test_bedroom_example(self):
        out = intervene_initial_configuration(WATCH_TV, "bedroom")
        assert out.kind == "InitialConfiguration"
        assert out.modified.task == "Watch TV in bedroom"
        assert out.modified.reference_plan[0] == "walk to bedroom"
        assert out.modified.reference_plan[1:] == WATCH_TV.reference_plan
        assert out.payload == "bedroom"

    def test_original_untouched(self):
        before = WATCH_TV.reference_plan
        intervene_initial_configuration(WATCH_TV, "kitchen")
        assert WATCH_TV.reference_plan == before

    def test_domain_carried(self):
        out = intervene_initial_configuration(WATCH_TV, "bedroom")
        assert out.modified.domain == "robothow"

    def test_empty_location_rejected(self):
        with pytest.raises(ValueError):
            intervene_initial_configuration(WATCH_TV, "")


class TestIntermediateStep:
    def test_work_find_computer_example(self):
        # Scan for a seed that pins "find computer" so the composed name is
        # stable regardless of RNG internals.
        seed = next(
            s
            for s in range(1000)
            if intervene_intermediate_step(WORK, s).payload == "find computer"
        )
        out = intervene_intermediate_step(WORK, seed)
        assert out.modified.task == "Work (Find Computer)"
        assert out.modified.reference_plan == WORK.reference_plan
        assert out.kind == "IntermediateStep"

    def test_seed_determinism(self):
        assert intervene_intermediate_step(WORK, 7) == intervene_intermediate_step(WORK, 7)

    def test_payload_is_raw_step(self):
        out = intervene_intermediate_step(WORK, 3)
        assert out.payload in WORK.reference_plan
        assert f"({capitalize_words(out.payload)})" in out.modified.task

    def test_draw_is_roughly_uniform(self):
        # 10k seeded draws over a 4-step plan: every index within 3 sigma of
        # the uniform expectation (sigma = sqrt(n * p * (1-p))).
        plan4 = TaskSample(task="T", reference_plan=("a", "b", "c", "d"))
        counts = collections.Counter(
            intervene_intermediate_step(plan4, seed).payload for seed in range(10_000)
        )
        expected = 10_000 * 0.25
        sigma = (10_000 * 0.25 * 0.75) ** 0.5
        assert set(counts) == {"a", "b", "c", "d"}
        for step, n in counts.items():
            assert abs(n - expected) <= 3 * sigma, (step, n)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            intervene_intermediate_step(TaskSample(task="T", reference_plan=()), 0)


class TestFinalGoal:
    def test_turn_light_off_and_clean_shape(self):
        light = TaskSample(
            task="Turn light off",
            reference_plan=("walk to bedroom", "find light switch", "turn off light switch"),
            domain="wikihow",
        )
        clean = TaskSample(
            task="Clean",
            reference_plan=(
                "walk to kitchen",
                "find broom",
                "grab broom",
                "sweep floor",
                "find dustpan",
                "grab dustpan",
                "collect dust",
                "empty dustpan",
                "put back broom",
            ),
            domain="wikihow",
        )
        out = intervene_final_goal(light, clean)
        assert out.modified.task == "Turn light off and Clean"
        assert len(out.modified.reference_plan) == 3 + 9
        assert out.modified.reference_plan[:3] == light.reference_plan
        assert out.modified.reference_plan[3:] == clean.reference_plan
        assert out.originals == (light, clean)
        assert out.payload == "Clean"

    def test_mixed_domain_becomes_generic(self):
        other = TaskSample(task="X", reference_plan=("y",), domain="wikihow")
        assert intervene_final_goal(WATCH_TV, other).modified.domain == "generic"

    def test_same_domain_kept(self):
        assert intervene_final_goal(WATCH_TV, WORK).modified.domain == "robothow"

    def test_empty_plan_rejected(self):
        empty = TaskSample(task="E", reference_plan=())
        with pytest.raises(ValueError):
            intervene_final_goal(WATCH_TV, empty)
        with pytest.raises(ValueError):
            intervene_final_goal(empty, WATCH_TV)


class TestSampleType:
    def test_kinds(self):
        assert KINDS == ("InitialConfiguration", "IntermediateStep", "FinalGoal")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CounterfactualSample(
                kind="TimeTravel", originals=(WATCH_TV,), modified=WATCH_TV, payload=""
            )

    def test_originals_keep_the_input_order(self):
        assert intervene_final_goal(WATCH_TV, WORK).originals == (WATCH_TV, WORK)
        assert intervene_initial_configuration(WATCH_TV, "bedroom").originals == (WATCH_TV,)

    def test_value_semantics(self):
        a = intervene_initial_configuration(WATCH_TV, "bedroom")
        b = intervene_initial_configuration(WATCH_TV, "bedroom")
        assert a == b and hash(a) == hash(b)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        samples = [
            intervene_initial_configuration(WATCH_TV, "bedroom"),
            intervene_intermediate_step(WORK, 11),
            intervene_final_goal(WATCH_TV, WORK),
        ]
        path = tmp_path / "cf.jsonl"
        write_jsonl(path, [s.to_json() for s in samples])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [s.to_json() for s in samples]
        assert rows[2]["originals"] == [
            {"task": t.task, "reference_plan": list(t.reference_plan), "domain": t.domain}
            for t in (WATCH_TV, WORK)
        ]

    def test_lines_are_standalone_json(self, tmp_path):
        path = tmp_path / "cf.jsonl"
        write_jsonl(path, [intervene_initial_configuration(WATCH_TV, "bedroom").to_json()])
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["kind"] == "InitialConfiguration"
        assert obj["modified"]["task"] == "Watch TV in bedroom"
