"""Next-step text generation behind one provider interface.

Providers return (text, confidence) for a structured prompt: the task,
its grounded knowledge lines and the accepted step history. The remote
provider speaks an OpenAI-style completions contract; the two mock
providers exist so the whole planning loop runs offline and reproducibly:

* follower mock: echoes the first knowledge line of the prompt that the
  step history has not used yet, with a configured confidence schedule.
* scripted mock: looks responses up by a stable fingerprint of the exact
  rendered prompt bytes (FNV-1a, 64-bit, lowercase hex; also described in
  the README).

Only the scripted and remote providers read the rendered text; this module
is the one place that knows the "Task:"/"Step:"/"Step i:" format. The remote
decoding settings are constants (``MAX_TOKENS``, ``TEMPERATURE``, ``STOP``,
``LOGPROBS``), sent unchanged in every completion request.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property

from . import _http
from ._files import read_json
from .errors import InputError, TransportError

MAX_TOKENS = 64
TEMPERATURE = 0.0
STOP = ("\n",)
LOGPROBS = 1
TIMEOUT_S = 60.0

_STEP_PREFIX_RE = re.compile(r"^\s*step\s*\d*\s*:\s*", re.IGNORECASE)


class FixtureMissError(KeyError):
    def __init__(self, fingerprint, prompt):
        head = prompt[:80].replace("\n", "\\n")
        super().__init__(f"no scripted response for fingerprint {fingerprint} (prompt: {head}...)")
        self.fingerprint = fingerprint


@dataclass(frozen=True)
class GenerationRequest:
    """One next-step call: the structured prompt.

    ``knowledge`` holds the grounded knowledge lines and ``history`` the
    accepted step texts, in order. ``prompt`` is the rendered text, built on
    first access only.
    """

    task: str
    knowledge: tuple[str, ...] = ()
    history: tuple[str, ...] = ()

    @cached_property
    def prompt(self):
        """The task line, one "Step: x." line per knowledge line, then one
        "Step i: x." line per history step (1-based)."""
        lines = [f"Task: {self.task}"]
        lines.extend(f"Step: {text}." for text in self.knowledge)
        lines.extend(f"Step {i}: {text}." for i, text in enumerate(self.history, 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class GenerationResult:
    text: str
    confidence: float
    flagged: bool = False  # confidence was defaulted (no logprobs from the service)


def prompt_fingerprint(prompt):
    """FNV-1a 64-bit over the UTF-8 prompt bytes, as 16 lowercase hex chars."""
    h = 0xCBF29CE484222325
    for byte in prompt.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def clean_completion(text):
    """Reduce a raw completion to one step's worth of text: cut at the first
    line break, drop any leading step marker, keep the first sentence, and
    strip edge whitespace and the trailing period."""
    text = text.strip().split("\n", 1)[0]
    text = _STEP_PREFIX_RE.sub("", text)
    dot = text.find(".")
    if dot >= 0:
        text = text[:dot]
    return text.strip()


class KnowledgeFollowerGenerator:
    """Returns the first knowledge line of the request not yet in the step
    history; when every line is used up, returns ("", 0.0).

    ``schedule`` supplies the confidence for the i-th generated step
    (indexed by history length, clamped to the last entry); every entry
    must lie in [0, 1]. Stateless across calls by construction.
    """

    kind = "follower"

    def __init__(self, schedule=(1.0,)):
        schedule = tuple(float(c) for c in schedule)
        if not schedule:
            raise ValueError("confidence schedule must be nonempty")
        if not all(0.0 <= c <= 1.0 for c in schedule):
            raise ValueError(f"confidence schedule entries must lie in [0, 1], got {schedule}")
        self.schedule = schedule

    def next_step(self, request):
        used = set(request.history)
        for line in request.knowledge:
            if line not in used:
                idx = min(len(request.history), len(self.schedule) - 1)
                return GenerationResult(text=line, confidence=self.schedule[idx])
        return GenerationResult(text="", confidence=0.0)


class ScriptedGenerator:
    """Fixture-backed provider: a JSON object mapping prompt fingerprint to
    {"text": str, "confidence": number in [0, 1]}. Every entry is checked
    once, at load; a miss is an error, never a silent default."""

    kind = "scripted"

    def __init__(self, path):
        responses = read_json(path, InputError)
        if not isinstance(responses, dict):
            raise InputError(f"{path}: a generator fixture must hold a JSON object")
        self._results = {}
        for fp, entry in responses.items():
            if not (isinstance(entry, dict) and isinstance(entry.get("text"), str)
                    and type(entry.get("confidence")) in (int, float) and 0 <= entry["confidence"] <= 1):
                raise InputError(
                    f'{path}: entry {fp} must be {{"text": str, "confidence": number in [0, 1]}}, got {entry!r}'
                )
            self._results[fp] = GenerationResult(clean_completion(entry["text"]), float(entry["confidence"]))

    def next_step(self, request):
        fp = prompt_fingerprint(request.prompt)
        result = self._results.get(fp)
        if result is None:
            raise FixtureMissError(fp, request.prompt)
        return result


class RemoteGenerator:
    """OpenAI-style completion client with bounded, jittered retries.

    Confidence is exp(mean token log-probability) when the service returns
    logprobs; otherwise 1.0 with the result flagged. A completion whose text
    is not a string, or whose logprobs are not an object holding a list of
    finite numbers <= 0, is a TransportError.
    """

    kind = "remote"

    def __init__(self, endpoint, model, api_key=None, transport=None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self._transport = transport

    def next_step(self, request):
        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": MAX_TOKENS,
            "temperature": TEMPERATURE,
            "logprobs": LOGPROBS,
            "stop": list(STOP),
        }
        body = _http.post_json(
            self.endpoint,
            payload,
            api_key=self.api_key,
            timeout=TIMEOUT_S,
            transport=self._transport,
        )
        try:
            choice = body["choices"][0]
            text, logprobs = choice["text"], choice.get("logprobs")
            token_logprobs = None if logprobs is None else logprobs.get("token_logprobs")
            token_logprobs = [] if token_logprobs is None else token_logprobs
            well_formed = isinstance(text, str) and isinstance(token_logprobs, list) and all(
                type(v) in (int, float) and -sys.float_info.max <= v <= 0 for v in token_logprobs
            )
        except (KeyError, IndexError, TypeError, AttributeError):
            well_formed = False
        if not well_formed:
            raise TransportError(
                "completion response must hold a string choices[0].text and, if any, logprobs "
                "as an object whose token_logprobs are finite numbers <= 0", endpoint=self.endpoint
            )
        if token_logprobs:
            confidence = math.exp(sum(token_logprobs) / len(token_logprobs))
            flagged = False
        else:
            confidence, flagged = 1.0, True
        return GenerationResult(text=clean_completion(text), confidence=confidence, flagged=flagged)


def next_step(provider, request):
    """Run one generation and enforce the single-step output contract: one
    line of text and a confidence in [0, 1]."""
    result = provider.next_step(request)
    text = result.text.strip()
    if "\n" in text or _STEP_PREFIX_RE.match(text):
        text = clean_completion(text)
    if text != result.text:
        result = GenerationResult(text, result.confidence, result.flagged)
    if not 0.0 <= result.confidence <= 1.0:  # also rejects NaN
        raise ValueError(f"provider returned confidence {result.confidence!r} outside [0, 1]")
    return result
