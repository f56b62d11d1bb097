"""Generation providers: completion cleanup, mocks, remote transport."""

import json
import math
import re

import pytest

import oracles
from nsplan import _http
from nsplan.errors import InputError, TransportError
from nsplan.generation import (
    FixtureMissError,
    GenerationRequest,
    GenerationResult,
    KnowledgeFollowerGenerator,
    RemoteGenerator,
    ScriptedGenerator,
    clean_completion,
    next_step,
    prompt_fingerprint,
)

KNOWLEDGE = ("find remote control", "switch on television", "sit on sofa")
REQUEST = GenerationRequest("Watch TV", KNOWLEDGE, ("find remote control",))
PROMPT = (
    "Task: Watch TV\n"
    "Step: find remote control.\n"
    "Step: switch on television.\n"
    "Step: sit on sofa.\n"
    "Step 1: find remote control."
)


class TestCleanCompletion:
    @pytest.mark.parametrize(
        "raw,want",
        [
            ("  walk to sofa  ", "walk to sofa"),
            ("walk to sofa.\nStep 2: sit down.", "walk to sofa"),
            ("Step 3: switch on television. Then relax.", "switch on television"),
            ("step: soap up", "soap up"),
            ("STEP 12 :  dry off.", "dry off"),
            ("", ""),
            ("\n\nkept after leading blank lines\nsecond", "kept after leading blank lines"),
            ("no trailing dot", "no trailing dot"),
        ],
    )
    def test_cases(self, raw, want):
        assert clean_completion(raw) == want

    def test_idempotent(self):
        for raw in ["Step 1: walk.", "plain text", "a. b. c."]:
            once = clean_completion(raw)
            assert clean_completion(once) == once


class TestFingerprint:
    def test_known_vectors(self):
        # FNV-1a 64-bit reference values.
        assert prompt_fingerprint("") == "cbf29ce484222325"
        assert prompt_fingerprint("a") == "af63dc4c8601ec8c"
        assert prompt_fingerprint("foobar") == "85944171f73967e8"

    def test_sixteen_lowercase_hex(self):
        fp = prompt_fingerprint(PROMPT)
        assert len(fp) == 16
        assert fp == fp.lower()
        int(fp, 16)

    def test_sensitive_to_every_byte(self):
        assert prompt_fingerprint(PROMPT) != prompt_fingerprint(PROMPT + " ")


class TestRequest:
    def test_renders_task_knowledge_and_history(self):
        assert REQUEST.prompt == PROMPT


class TestFollower:
    def test_returns_first_unused_knowledge_line(self):
        result = KnowledgeFollowerGenerator().next_step(REQUEST)
        assert result.text == "switch on television"
        assert result.confidence == 1.0

    def test_reads_structured_prompt_without_rendering(self):
        request = GenerationRequest("Watch TV", KNOWLEDGE, ("find remote control",))
        KnowledgeFollowerGenerator().next_step(request)
        assert "prompt" not in vars(request)

    def test_schedule_indexed_by_history_length(self):
        gen = KnowledgeFollowerGenerator(schedule=(1.0, 1.0, 0.5))
        result = gen.next_step(REQUEST)  # one history step
        assert result.confidence == 1.0
        longer = GenerationRequest("Watch TV", KNOWLEDGE, KNOWLEDGE[:2])
        result = gen.next_step(longer)
        assert result.text == "sit on sofa"
        assert result.confidence == 0.5

    def test_schedule_clamps_to_last_entry(self):
        gen = KnowledgeFollowerGenerator(schedule=(0.9,))
        longer = GenerationRequest("Watch TV", KNOWLEDGE, KNOWLEDGE[:2])
        assert gen.next_step(longer).confidence == 0.9

    def test_exhaustion_returns_empty_zero(self):
        done = GenerationRequest("Watch TV", ("sit on sofa",), ("sit on sofa",))
        result = KnowledgeFollowerGenerator().next_step(done)
        assert (result.text, result.confidence) == ("", 0.0)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeFollowerGenerator(schedule=())

    @pytest.mark.parametrize("schedule", [(1.5,), (1.0, -0.1), (float("nan"),)])
    def test_schedule_outside_unit_interval_rejected(self, schedule):
        with pytest.raises(ValueError):
            KnowledgeFollowerGenerator(schedule=schedule)

    def test_stateless_across_calls(self):
        gen = KnowledgeFollowerGenerator()
        first = gen.next_step(REQUEST)
        second = gen.next_step(REQUEST)
        assert first == second


def _scripted_fixture(tmp_path, text):
    path = tmp_path / "responses.json"
    path.write_text(text)
    return path


class TestScripted:
    def test_lookup_by_fingerprint(self, tmp_path):
        fp = prompt_fingerprint("Task: X")
        path = _scripted_fixture(tmp_path, json.dumps({fp: {"text": "Step 1: walk.", "confidence": 0.7}}))
        result = ScriptedGenerator(path).next_step(GenerationRequest("X"))
        assert result.text == "walk"
        assert result.confidence == 0.7

    def test_miss_raises_with_fingerprint(self, tmp_path):
        gen = ScriptedGenerator(_scripted_fixture(tmp_path, "{}"))
        with pytest.raises(FixtureMissError) as err:
            gen.next_step(GenerationRequest("X"))
        assert err.value.fingerprint == prompt_fingerprint("Task: X")

    def test_integer_confidence_is_a_float(self, tmp_path):
        fp = prompt_fingerprint("Task: Y")
        path = _scripted_fixture(tmp_path, json.dumps({fp: {"text": "sit", "confidence": 1}}))
        result = ScriptedGenerator(path).next_step(GenerationRequest("Y"))
        assert (result.text, result.confidence) == ("sit", 1.0)
        assert type(result.confidence) is float

    @pytest.mark.parametrize("content", ["[1]", '"text"', "{"])
    def test_file_that_is_not_a_json_object_is_named(self, tmp_path, content):
        path = _scripted_fixture(tmp_path, content)
        with pytest.raises(InputError, match=re.escape(str(path))):
            ScriptedGenerator(path)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"text": 5, "confidence": 0.5}',
            '{"text": "walk"}',
            '{"confidence": 0.5}',
            '{"text": "walk", "confidence": "0.5"}',
            '{"text": "walk", "confidence": true}',
            '{"text": "walk", "confidence": null}',
            '{"text": "walk", "confidence": 1.5}',
            '{"text": "walk", "confidence": -0.1}',
            '{"text": "walk", "confidence": NaN}',
            '"walk"',
            '["walk", 0.5]',
        ],
        ids=[
            "text-not-string", "no-confidence", "no-text", "string-confidence", "bool-confidence",
            "null-confidence", "confidence-above-one", "confidence-below-zero", "nan-confidence",
            "entry-is-string", "entry-is-list",
        ],
    )
    def test_bad_entry_is_refused_at_load_naming_file_and_fingerprint(self, tmp_path, entry):
        fp = prompt_fingerprint("Task: X")
        good = json.dumps({"text": "sit", "confidence": 0.5})
        path = _scripted_fixture(tmp_path, '{"%s": %s, "%s": %s}' % ("0" * 16, good, fp, entry))
        with pytest.raises(InputError, match=f"{re.escape(str(path))}: entry {fp} must be"):
            ScriptedGenerator(path)


class TestRemote:
    @staticmethod
    def _ok_body(text="walk to sofa", logprobs=None):
        choice = {"text": text}
        if logprobs is not None:
            choice["logprobs"] = {"token_logprobs": logprobs}
        return {"choices": [choice]}

    def test_payload_shape(self):
        seen = []

        def transport(payload):
            seen.append(payload)
            return 200, self._ok_body(logprobs=[-0.1])

        gen = RemoteGenerator("http://svc/v1", model="m1", transport=transport)
        gen.next_step(GenerationRequest("X"))
        assert seen == [
            {
                "model": "m1",
                "prompt": "Task: X",
                "max_tokens": 64,
                "temperature": 0.0,
                "logprobs": 1,
                "stop": ["\n"],
            }
        ]

    @pytest.mark.parametrize(
        "choice",
        [
            {"text": 5},
            {"text": None},
            {"text": "walk", "logprobs": "x"},
            {"text": "walk", "logprobs": [-0.1]},
            {"text": "walk", "logprobs": {"token_logprobs": -0.1}},
            {"text": "walk", "logprobs": {"token_logprobs": [None, -0.1]}},
            {"text": "walk", "logprobs": {"token_logprobs": ["x"]}},
            {"text": "walk", "logprobs": {"token_logprobs": [True]}},
            {"text": "walk", "logprobs": {"token_logprobs": [1000.0]}},
            {"text": "walk", "logprobs": {"token_logprobs": [-0.1, 0.5]}},
            {"text": "walk", "logprobs": {"token_logprobs": [float("nan")]}},
            {"text": "walk", "logprobs": {"token_logprobs": [-0.1, float("-inf")]}},
        ],
        ids=[
            "text-int", "text-null", "logprobs-str", "logprobs-list", "token-logprobs-number",
            "null-entry", "str-entry", "bool-entry", "huge-entry", "positive-entry", "nan-entry",
            "neg-inf-entry",
        ],
    )
    def test_malformed_completion_is_transport_error(self, choice):
        body = {"choices": [choice]}
        gen = RemoteGenerator("http://svc/v1", model="m", transport=lambda p: (200, body))
        with pytest.raises(TransportError) as err:
            gen.next_step(GenerationRequest("X"))
        assert err.value.endpoint == "http://svc/v1"

    @pytest.mark.parametrize("logprobs", [None, {}, {"token_logprobs": None}, {"token_logprobs": []}])
    def test_absent_logprobs_flag_confidence_one(self, logprobs):
        body = {"choices": [{"text": "walk", "logprobs": logprobs}]}
        gen = RemoteGenerator("http://svc/v1", model="m", transport=lambda p: (200, body))
        result = gen.next_step(GenerationRequest("X"))
        assert (result.text, result.confidence, result.flagged) == ("walk", 1.0, True)

    def test_confidence_is_exp_mean_logprob(self):
        logprobs = [-0.5, -1.0, -0.25]
        gen = RemoteGenerator(
            "http://svc/v1",
            model="m",
            transport=lambda p: (200, self._ok_body(logprobs=logprobs)),
        )
        result = gen.next_step(GenerationRequest("X"))
        want = oracles.mean_logprob_confidence_oracle(logprobs)
        assert result.confidence == pytest.approx(want, abs=1e-15)
        assert result.confidence == pytest.approx(math.exp(-1.75 / 3), abs=1e-12)
        assert not result.flagged

    def test_missing_logprobs_flags_confidence_one(self):
        gen = RemoteGenerator(
            "http://svc/v1", model="m", transport=lambda p: (200, self._ok_body())
        )
        result = gen.next_step(GenerationRequest("X"))
        assert result.confidence == 1.0
        assert result.flagged

    def test_cleans_raw_completion(self):
        gen = RemoteGenerator(
            "http://svc/v1",
            model="m",
            transport=lambda p: (
                200,
                self._ok_body(text="Step 2: sit on sofa. Then nap.", logprobs=[-0.1]),
            ),
        )
        assert gen.next_step(GenerationRequest("X")).text == "sit on sofa"

    def test_retries_then_succeeds(self, sleeps):
        calls = []

        def transport(payload):
            calls.append(1)
            if len(calls) < 3:
                return 429, {}
            return 200, self._ok_body(logprobs=[-0.2])

        gen = RemoteGenerator("http://svc/v1", model="m", transport=transport)
        assert _http.RETRIES >= 2
        assert gen.next_step(GenerationRequest("X")).text == "walk to sofa"
        assert len(calls) == 3
        assert len(sleeps) == 2
        assert all(0.5 * 2**k <= d < 2**k for k, d in enumerate(sleeps))  # retry k+1: [0.5, 1) * 2**k s

    def test_transport_error_after_retries(self, sleeps):
        calls = []

        def transport(payload):
            calls.append(1)
            return 503, {}

        gen = RemoteGenerator("http://svc/v1", model="m", transport=transport)
        with pytest.raises(TransportError) as err:
            gen.next_step(GenerationRequest("X"))
        assert err.value.status == 503
        assert len(calls) == _http.RETRIES + 1 and len(sleeps) == _http.RETRIES
        assert all(0.5 * 2**k <= d < 2**k for k, d in enumerate(sleeps))  # retry k+1: [0.5, 1) * 2**k s

    def test_non_retryable_status_raises_immediately(self):
        calls = []

        def transport(payload):
            calls.append(1)
            return 401, {}

        gen = RemoteGenerator("http://svc/v1", model="m", transport=transport)
        with pytest.raises(TransportError):
            gen.next_step(GenerationRequest("X"))
        assert len(calls) == 1

    def test_malformed_body_raises(self):
        gen = RemoteGenerator(
            "http://svc/v1", model="m", transport=lambda p: (200, {"choices": []})
        )
        with pytest.raises(TransportError, match="choices"):
            gen.next_step(GenerationRequest("X"))


class TestNextStepContract:
    def test_recleans_sloppy_provider(self):
        class Sloppy:
            def next_step(self, request):
                return GenerationResult("Step 4: walk.\ngarbage", 0.5)

        assert next_step(Sloppy(), GenerationRequest("X")).text == "walk"

    def test_rejects_non_finite_confidence(self):
        class Bad:
            def next_step(self, request):
                return GenerationResult("walk", float("nan"))

        with pytest.raises(ValueError):
            next_step(Bad(), GenerationRequest("X"))

    @pytest.mark.parametrize("confidence", [1.5, -0.1])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        class Overconfident:
            def next_step(self, request):
                return GenerationResult("walk", confidence)

        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            next_step(Overconfident(), GenerationRequest("X"))

    def test_passes_through_clean_results(self):
        result = next_step(KnowledgeFollowerGenerator(), REQUEST)
        assert result.text == "switch on television"
