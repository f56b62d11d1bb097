"""Structured step grammar and task dataset loading."""

import json
import logging
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsplan import cli, programs
from nsplan.errors import InputError
from nsplan.programs import (
    StepParseError,
    StructuredStep,
    TaskSample,
    action_templates,
    load_task_dataset,
    parse_robothow_step,
    render_step,
)

# Row-shaped lines with fields of wrong types and values, next to arbitrary
# bytes and deep nesting: lenient loading must skip each bad one, never raise.
_FIELDS = st.one_of(
    st.text(max_size=4), st.sampled_from(["[Walk] <SOFA> (1)", "Sit down."]), st.integers(), st.none(),
    st.lists(st.one_of(st.text(max_size=4), st.sampled_from(["[Sit] <CHAIR> (2)"]), st.integers()), max_size=3),
)
_ROWS = st.builds(
    lambda task, steps: json.dumps({"task": task, "steps": steps, "title": task, "headlines": steps}),
    _FIELDS, _FIELDS,
).map(lambda line: line.encode("utf-8", "surrogatepass"))
_NESTED = st.integers(min_value=1, max_value=3000).map(lambda depth: b"[" * depth)

# Pieces of step lines, near misses included: brackets, index prefixes,
# ASCII and non-ASCII digits and spaces.
_STEP_FRAGMENTS = [
    "[", "]", "<", ">", "(", ")", "Step", "step", "Steps", "1", "0", "12", ".", ":",
    " ", "\t", "\u2003", "\u00b2", "\u0663", "Walk", "TV", "_",
]
# An action or object as it survives parsing: not blank, without the
# closing brackets or edge whitespace.
_FIELD_TEXT = st.text(st.characters(exclude_characters="]>"), min_size=1).filter(lambda s: s == s.strip())

ACTIONS = ["Walk", "Find", "Grab", "Sit", "SwitchOn", "SwitchOff", "Watch", "LookAt"]
OBJECTS = ["TELEVISION", "SOFA", "COMPUTER", "HOME_OFFICE", "LIGHT_SWITCH", "CHAIR"]


def _ordered_parse(line):
    """The step parser with only the ordered checks: each group in grammar
    order, then trailing text, then the instance."""
    m = programs._STEP.match(line)
    for group, message in programs._PARTS:
        if m[group] is None:
            raise StepParseError(message, column=m.end() + 1)
        if not m[group].strip():
            raise StepParseError(message, column=m.start(group) + 1)
    if m.end() < len(line):
        raise StepParseError("trailing text after step", column=m.end() + 1)
    instance = int(m["instance"])
    if instance < 1:
        raise StepParseError("instance must be a positive integer", column=m.start("instance") + 1)
    return StructuredStep(action=m["action"].strip(), object=m["object"].strip(), instance=instance)


def _clear_memos():
    parse_robothow_step.cache_clear()
    programs._natural.cache_clear()


def _dataset(path, plans):
    path.write_text("".join(json.dumps({"task": f"T{i}", "steps": steps}) + "\n" for i, steps in enumerate(plans)))
    return path


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, message and column of the
    ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err), getattr(err, "column", None)


class TestParse:
    def test_plain_step(self):
        step = parse_robothow_step("[Walk] <TELEVISION> (1)")
        assert step == StructuredStep("Walk", "TELEVISION", 1)

    @pytest.mark.parametrize(
        "prefix",
        ["1. ", "12: ", "Step 3: ", "step 4. ", "  7.  "],
    )
    def test_index_prefixes_skipped(self, prefix):
        step = parse_robothow_step(f"{prefix}[Sit] <SOFA> (2)")
        assert step == StructuredStep("Sit", "SOFA", 2)

    def test_case_preserved_verbatim(self):
        step = parse_robothow_step("[SwitchOn] <Home_Office> (1)")
        assert step.action == "SwitchOn"
        assert step.object == "Home_Office"

    def test_multi_digit_instance(self):
        assert parse_robothow_step("[Grab] <PLATE> (12)").instance == 12

    @pytest.mark.parametrize(
        "line,column,message",
        [
            ("Walk] <TELEVISION> (1)", 1, "expected '['"),
            ("[Walk <TELEVISION> (1)", 23, "unterminated action, expected ']'"),
            ("[] <TELEVISION> (1)", 2, "empty action"),
            ("[Walk] TELEVISION (1)", 8, "expected '<'"),
            ("[Walk] <TELEVISION (1)", 23, "unterminated object, expected '>'"),
            ("[Walk] < \t> (1)", 9, "empty object"),
            ("[Walk] <TELEVISION> 1)", 21, "expected '('"),
            ("[Walk] <TELEVISION> (x)", 22, "expected instance number"),
            ("[Walk] <TELEVISION> (1", 23, "expected ')'"),
            ("[Walk] <TELEVISION> (1) extra", 25, "trailing text after step"),
            ("[Walk] <TV> (00)", 14, "instance must be a positive integer"),
            # digits are ASCII: a superscript or Arabic-Indic digit is no instance
            ("[Walk] <TV> (\u00b2)", 14, "expected instance number"),
            ("[Walk] <TV> (\u0663)", 14, "expected instance number"),
            # nor is a prefix that has a non-ASCII digit or lacks its "." / ":"
            ("3", 1, "expected '['"),
            ("Step 3", 1, "expected '['"),
            ("\u00b2. [Walk] <TV> (1)", 1, "expected '['"),
        ],
    )
    def test_error_column_positions(self, line, column, message):
        with pytest.raises(StepParseError) as err:
            parse_robothow_step(line)
        assert err.value.column == column
        assert str(err.value) == f"column {column}: {message}"

    def test_zero_instance_rejected(self):
        with pytest.raises(ValueError):
            StructuredStep("Walk", "SOFA", 0)

    def test_round_trip_200_random_steps(self):
        rng = random.Random(1234)
        for _ in range(200):
            step = StructuredStep(
                action=rng.choice(ACTIONS),
                object=rng.choice(OBJECTS),
                instance=rng.randint(1, 30),
            )
            line = render_step(step, style="dataset")
            assert parse_robothow_step(line) == step

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_STEP_FRAGMENTS), st.text(max_size=3)), max_size=12).map("".join))
    def test_any_text_parses_or_names_a_column_inside_it(self, line):
        try:
            step = parse_robothow_step(line)
        except StepParseError as err:
            assert 1 <= err.column <= len(line) + 1
        else:
            assert parse_robothow_step(render_step(step, style="dataset")) == step

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.one_of(
            st.just(""),
            st.tuples(st.sampled_from(["", "Step ", "step  ", "STEP\t"]), st.integers(0, 999), st.sampled_from(".:"))
            .map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
        ),
        space=st.sampled_from(["", " ", "  ", "\t", "\u2003"]),
        action=_FIELD_TEXT,
        obj=_FIELD_TEXT,
        instance=st.integers(1, 10**6),
    )
    def test_rendered_step_parses_back_behind_any_index_prefix(self, prefix, space, action, obj, instance):
        step = StructuredStep(action, obj, instance)
        assert parse_robothow_step(f"{space}{prefix}{space}{render_step(step, style='dataset')}") == step

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.lists(st.one_of(st.sampled_from(_STEP_FRAGMENTS), st.text(max_size=3)), max_size=12).map("".join),
        st.tuples(st.sampled_from(["", " ", "2. "]), st.sampled_from(["Walk", " ", "", " TV "]),
                  st.sampled_from(["SOFA", "\t", "", "a b"]), st.sampled_from(["1", "0", "00", "007", "9" * 30]),
                  st.sampled_from(["", " ", "x", " )", "\u2003"]))
        .map(lambda t: f"{t[0]}[{t[1]}] <{t[2]}> ({t[3]}){t[4]}"),
    ))
    def test_parse_gives_the_ordered_checks_result_or_error(self, line):
        """The parser's early return for a well-formed step changes no
        result and no (message, column) of the ordered checks alone."""
        assert _outcome(parse_robothow_step, line) == _outcome(_ordered_parse, line)

    def test_round_trip_with_index_prefix(self):
        step = StructuredStep("Watch", "TELEVISION", 1)
        line = f"5. {render_step(step, style='dataset')}"
        assert parse_robothow_step(line) == step


class TestRender:
    def test_dataset_style_exact(self):
        step = StructuredStep("SwitchOn", "TELEVISION", 1)
        assert render_step(step, style="dataset") == "[SwitchOn] <TELEVISION> (1)"

    def test_natural_style(self):
        step = StructuredStep("SwitchOn", "TELEVISION", 1)
        assert render_step(step, style="natural") == "switch on television"

    def test_natural_underscored_object(self):
        step = StructuredStep("Walk", "HOME_OFFICE", 1)
        assert render_step(step, style="natural") == "walk to home office"

    def test_natural_objectless_template(self):
        step = StructuredStep("StandUp", "CHAIR", 1)
        assert render_step(step, style="natural") == "stand up"

    def test_unknown_action_lists_known(self):
        step = StructuredStep("Teleport", "SOFA", 1)
        with pytest.raises(ValueError) as err:
            render_step(step, style="natural")
        known = ", ".join(sorted(action_templates()))
        assert str(err.value) == f"no natural template for action 'Teleport'; known actions: {known}"
        assert "walk" in known

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render_step(StructuredStep("Walk", "SOFA", 1), style="poetic")

    def test_templates_is_cached_dict(self):
        assert action_templates() is action_templates()
        assert action_templates()["walk"] == "walk to {object}"


# Whole step lines: near misses, and well-formed lines sharing actions,
# objects and lengths, with an action that has no template.
_STEP_LINES = st.one_of(
    st.lists(st.one_of(st.sampled_from(_STEP_FRAGMENTS), st.text(max_size=3)), max_size=12).map("".join),
    st.builds(
        lambda prefix, action, obj, instance: f"{prefix}[{action}] <{obj}> ({instance})",
        st.sampled_from(["", "2. "]), st.sampled_from(ACTIONS + ["Teleport"]), st.sampled_from(OBJECTS),
        st.integers(1, 3),
    ),
)


class TestStepMemo:
    """Parsing and the natural render are memoized by their inputs; a stale
    or shared entry would show as a result off the unmemoized function's."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_STEP_LINES, min_size=1, max_size=5, unique=True).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=20)))
    @example(["[Walk] <SOFA> (1)", "[Walk] <CHAIR> (1)", "[Walk] <SOFA> (2)", "[Walk] <SOFA> (1)"])
    def test_memoized_parse_and_render_equal_the_unmemoized_ones(self, lines):
        _clear_memos()
        for line in lines:
            step = _outcome(parse_robothow_step, line)
            assert step == _outcome(parse_robothow_step.__wrapped__, line)
            if isinstance(step, StructuredStep):
                want = _outcome(programs._natural.__wrapped__, step.action, step.object)
                assert _outcome(render_step, step, "natural") == want

    def test_each_distinct_line_is_parsed_once_by_a_load_and_its_references(self, tmp_path):
        plans = [
            ["[Walk] <SOFA> (1)", "[Sit] <SOFA> (1)", "[Walk] <SOFA> (1)"],
            ["1. [Walk] <SOFA> (1)", "[Walk] <SOFA> (2)", "[Sit] <SOFA> (1)"],
            ["[Walk] <SOFA> (1)", "[Walk] <CHAIR> (1)"],
        ]
        path = _dataset(tmp_path / "d.jsonl", plans)
        _clear_memos()
        texts = [cli._reference_text(sample) for sample in load_task_dataset(path)]
        assert texts[1] == "walk to sofa. walk to sofa. sit on sofa"
        lines = [line for steps in plans for line in steps]
        distinct = len(set(lines))  # 5: an index prefix makes another line
        pairs = len({(s.action, s.object) for s in map(parse_robothow_step.__wrapped__, lines)})  # 3
        parses = parse_robothow_step.cache_info()
        assert (parses.misses, parses.hits) == (distinct, 2 * len(lines) - distinct)
        renders = programs._natural.cache_info()
        assert (renders.misses, renders.hits) == (pairs, len(lines) - pairs)

    def test_a_repeated_bad_line_is_reported_at_each_of_its_lines(self, tmp_path, caplog):
        bad = "[Walk] <SOFA> (0)"
        path = _dataset(tmp_path / "d.jsonl", [["[Sit] <SOFA> (1)"], [bad], ["[Sit] <SOFA> (1)", bad], [bad]])
        _clear_memos()
        with caplog.at_level(logging.WARNING, logger="nsplan.programs"):
            samples = load_task_dataset(path, strict=False)
        assert [s.task for s in samples] == ["T0"]
        error = "column 16: instance must be a positive integer"
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping dataset line: {path}, line {n}: {error}" for n in (2, 3, 4)
        ]
        with pytest.raises(InputError) as err:
            load_task_dataset(path, strict=True)
        assert str(err.value) == f"{path}, line 2: {error}"

    def test_threads_render_the_references_as_a_serial_run(self, tmp_path):
        rng = random.Random(7)
        plans = [
            [f"[{rng.choice(ACTIONS)}] <{rng.choice(OBJECTS)}> ({rng.randint(1, 2)})" for _ in range(rng.randint(1, 12))]
            for _ in range(300)
        ]
        samples = load_task_dataset(_dataset(tmp_path / "d.jsonl", plans))
        _clear_memos()
        serial = [cli._reference_text(sample) for sample in samples]
        _clear_memos()
        with ThreadPoolExecutor(max_workers=4) as executor:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = list(executor.map(cli._reference_text, samples, timeout=60))
            finally:
                sys.setswitchinterval(interval)
        assert got == serial


class TestLoadRobothow:
    def test_watch_tv_fixture(self, fixture_path):
        samples = load_task_dataset(fixture_path("watch_tv.jsonl"))
        assert [s.task for s in samples] == ["Watch TV", "Work"]
        first = samples[0]
        assert first.domain == "robothow"
        assert len(first.reference_plan) == 5
        assert first.reference_plan[0] == "1. [Walk] <TELEVISION> (1)"
        parsed = [parse_robothow_step(s) for s in first.reference_plan]
        assert [p.action for p in parsed] == ["Walk", "SwitchOn", "Walk", "Sit", "Watch"]

    def test_strict_mode_raises_with_line_number(self, fixture_path):
        with pytest.raises(InputError) as err:
            load_task_dataset(fixture_path("mixed_schema.jsonl"), strict=True)
        assert err.value.line_no == 2

    def test_lenient_mode_keeps_valid_lines(self, fixture_path):
        samples = load_task_dataset(fixture_path("mixed_schema.jsonl"), strict=False)
        assert [s.task for s in samples] == ["Watch TV", "Work"]

    def test_invalid_step_inside_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"task": "X", "steps": ["not a step"]}) + "\n")
        with pytest.raises(InputError, match="line 1"):
            load_task_dataset(path, strict=True)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_task_dataset(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            "\n" + json.dumps({"task": "X", "steps": ["[Walk] <SOFA> (1)"]}) + "\n\n"
        )
        samples = load_task_dataset(path)
        assert len(samples) == 1

    @pytest.mark.parametrize(
        "good,bad",
        [
            ({"task": "Sit", "steps": ["[Sit] <SOFA> (1)"]}, {"task": "x", "steps": [5]}),
            ({"task": "Sit", "steps": ["[Sit] <SOFA> (1)"]}, {"task": "x", "steps": ["[Walk] <SOFA> (1)", None]}),
            ({"title": "Sit", "headlines": ["Sit down."]}, {"title": "x", "headlines": [1, 2]}),
        ],
    )
    def test_step_that_is_not_a_string(self, tmp_path, good, bad):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(InputError) as err:
            load_task_dataset(path, strict=True)
        assert err.value.line_no == 2
        assert [s.task for s in load_task_dataset(path, strict=False)] == ["Sit"]

    @pytest.mark.parametrize("bad", [b"\xff\xfe", b"[" * 200_000], ids=["not-utf8", "deep-nesting"])
    def test_bad_second_line_is_named_strict_and_skipped_lenient(self, tmp_path, bad):
        good = [json.dumps({"task": t, "steps": ["[Sit] <SOFA> (1)"]}).encode() for t in ("A", "B")]
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"\n".join([good[0], bad, good[1]]) + b"\n")
        assert [s.task for s in load_task_dataset(path, strict=False)] == ["A", "B"]
        with pytest.raises(InputError) as err:
            load_task_dataset(path, strict=True)
        assert err.value.line_no == 2
        assert f"{path}, line 2" in str(err.value)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.one_of(st.binary(max_size=60), _ROWS, _NESTED), max_size=6))
    def test_lenient_load_of_arbitrary_lines_never_raises(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("fuzz") / "d.jsonl"
        path.write_bytes(b"\n".join(lines))
        for sample in load_task_dataset(path, strict=False):
            assert isinstance(sample.task, str)
            assert all(isinstance(step, str) for step in sample.reference_plan)
            if sample.domain == "robothow":
                for step in sample.reference_plan:
                    parse_robothow_step(step)

    def test_each_line_is_read_by_its_own_keys(self, tmp_path):
        """RobotHow lines, WikiHow lines and junk in one file: a lenient read
        keeps the good lines in file order, a strict one names the first junk."""
        rows = [
            {"task": "Watch TV", "steps": ["[Walk] <TELEVISION> (1)"]},
            {"title": "Clean", "headlines": ["Find rag."]},
            {"name": "Broken", "moves": ["nope"]},
            {"title": "Work", "headlines": ["Sit on chair."]},
            [1, 2],
            {"task": "Sit", "steps": ["[Sit] <SOFA> (1)"]},
        ]
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        samples = load_task_dataset(path, strict=False)
        assert [(s.task, s.domain) for s in samples] == [
            ("Watch TV", "robothow"), ("Clean", "wikihow"), ("Work", "wikihow"), ("Sit", "robothow"),
        ]
        with pytest.raises(InputError) as err:
            load_task_dataset(path, strict=True)
        assert err.value.line_no == 3
        assert str(err.value) == (
            f"{path}, line 3: expected a RobotHow line {{'task': str, 'steps': [str]}} "
            "or a WikiHow line {'title': str, 'headlines': [str]}"
        )


class TestLoadWikihow:
    def test_counterfactual_fixture(self, fixture_path):
        samples = load_task_dataset(fixture_path("counterfactual_tasks.jsonl"))
        tasks = [s.task for s in samples]
        assert tasks == ["Watch TV", "Work", "Turn light off", "Clean"]
        assert all(s.domain == "wikihow" for s in samples)
        by_task = {s.task: s for s in samples}
        assert len(by_task["Watch TV"].reference_plan) == 8
        assert len(by_task["Work"].reference_plan) == 8
        assert len(by_task["Turn light off"].reference_plan) == 3
        assert len(by_task["Clean"].reference_plan) == 9

    def test_headlines_kept_verbatim(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(json.dumps({"title": "T", "headlines": ["Do a thing."]}) + "\n")
        (sample,) = load_task_dataset(path)
        assert sample.reference_plan == ("Do a thing.",)


def test_task_sample_defaults():
    sample = TaskSample(task="T", reference_plan=("a",))
    assert sample.domain == "generic"
