"""Plan assembly: knowledge retrieval, prompt aggregation, and the
generate/translate/accept loop.

The knowledge prompt for a task is computed once, before the first step.
Each iteration hands the generator the structured prompt (task, grounded
knowledge lines, step history), asks it for a candidate, grounds the candidate
onto the admissible set, and accepts it only when the effective
confidence (generator confidence times translation cosine) clears the
threshold.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from . import adaption, entities, kg, verbalize
from .admissible import translate, translate_prompt
from .errors import ConfigError, TransportError
from .generation import GenerationRequest, next_step

TERMINATIONS = ("MaxSteps", "BelowThreshold", "GeneratorExhausted")


@dataclass(frozen=True)
class PlannerConfig:
    """The seven planning hyperparameters; defaults are the published
    configuration. The only place they are declared and validated."""

    theta: float = 0.7
    max_steps: int = 20
    hops: int = 3
    top_k: int = 10
    edge_threshold: float = 0.6
    concept_ratio: int = 3
    cos_keep_threshold: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.hops < 1:
            raise ConfigError(f"hops must be >= 1, got {self.hops}")
        if self.top_k < 0:
            raise ConfigError(f"top_k must be >= 0, got {self.top_k}")
        if not (math.isfinite(self.edge_threshold) and self.edge_threshold >= 0):
            raise ConfigError(f"edge_threshold must be a finite number >= 0, got {self.edge_threshold}")
        if self.concept_ratio < 1:
            raise ConfigError(f"concept_ratio must be >= 1, got {self.concept_ratio}")
        if not math.isfinite(self.cos_keep_threshold):
            raise ConfigError(f"cos_keep_threshold must be a finite number, got {self.cos_keep_threshold}")


@dataclass(frozen=True, slots=True)
class PlanStep:
    text: str
    confidence: float

    def to_json(self):
        return {"text": self.text, "confidence": self.confidence}


def _effective(generation_confidence, translation_cosine):
    """The confidence a step is accepted on: the generator's times the
    translation cosine, floored at 0."""
    return generation_confidence * max(translation_cosine, 0.0)


class Iteration(NamedTuple):
    """One pass of the loop, as a plan keeps it: the generated candidate,
    its translation, and whether it was accepted."""

    generated_text: str
    generation_confidence: float
    translated_text: str
    translation_cosine: float
    accepted: bool
    confidence_defaulted: bool

    @property
    def effective_confidence(self):
        return _effective(self.generation_confidence, self.translation_cosine)

    def entry(self, iteration):
        """The trace dict of this pass, the ``iteration``-th of its plan. It
        holds ``"confidence_defaulted": True`` only when the generation
        confidence was defaulted, so offline plan files keep their bytes."""
        entry = {
            "iteration": iteration,
            "generated_text": self.generated_text,
            "generation_confidence": self.generation_confidence,
            "translated_text": self.translated_text,
            "translation_cosine": self.translation_cosine,
            "effective_confidence": self.effective_confidence,
            "accepted": self.accepted,
        }
        if self.confidence_defaulted:
            entry["confidence_defaulted"] = True
        return entry


def _entries(iterations):
    return tuple(it.entry(i) for i, it in enumerate(iterations, 1))


RECORDS_CAP = 4096
_RECORDS = {}  # Iteration -> the first record kept equal to it


def _shared(record):
    """``record``, or the record kept earlier whose every field is the same
    object as ``record``'s, so plans that repeat a pass hold one record of
    it: a repeated plan keeps about 170 B, not 96 B a pass more. Equal
    values that are other objects (``0.0`` and ``-0.0``, ``1`` and ``1.0``,
    the same text of another admissible set) are never shared: ``record``
    takes the kept one's place. The table is cleared when it reaches
    ``RECORDS_CAP``; threads of a --jobs run share it, and each step is one
    dict call."""
    if len(_RECORDS) >= RECORDS_CAP:
        _RECORDS.clear()
    kept = _RECORDS.setdefault(record, record)
    if all(map(operator.is_, kept, record)):
        return kept
    _RECORDS.pop(record, None)
    _RECORDS[record] = record
    return record


@dataclass(frozen=True, slots=True)
class PlanResult:
    """A plan as its ``Iteration`` records. ``steps`` (the accepted
    translations) and ``trace`` (one fresh dict per iteration) are built
    from them on each access, so a kept plan holds only the records, which
    it shares with earlier plans that made the same ones (``_shared``), and
    a caller that edits a trace dict leaves the plan as it was."""

    task: str
    iterations: tuple
    termination: str

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")

    @property
    def steps(self):
        return tuple(PlanStep(it.translated_text, it.effective_confidence) for it in self.iterations if it.accepted)

    @property
    def trace(self):
        return _entries(self.iterations)

    def __len__(self):
        return sum(it.accepted for it in self.iterations)

    def to_json(self):
        return {
            "task": self.task,
            "steps": [s.to_json() for s in self.steps],
            "termination": self.termination,
            "trace": list(self.trace),
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def knowledge_for_task(task, graph, embedder, config):
    """Stages 1 and 2: parse the task, pull the local subgraph, adapt and
    gate edge weights, rank and cap the concepts, verbalize. Returns the
    ungrounded knowledge prompt."""
    parsed = entities.parse_entities(task, graph=graph)
    ranks = kg.sample_subgraph(graph, parsed.keys(), hops=config.hops)
    adapted = adaption.adapt_weights(graph, ranks, task, embedder, config)
    kept = adaption.select(adapted, config, task)
    return verbalize.build_knowledge_prompt(kept, max_depth=config.hops)


def plan(task, graph, admissible, generator, embedder, config=None):
    """Run the full loop for one task and return a PlanResult.

    A trace entry whose generation confidence was defaulted (a remote
    service sent no logprobs) carries ``"confidence_defaulted": True``.
    A transport failure mid-plan propagates as TransportError with the
    partial trace attached (``err.partial_trace``) so callers can record
    how far the task got.
    """
    config = config or PlannerConfig()
    knowledge = knowledge_for_task(task, graph, embedder, config)
    grounded = translate_prompt(knowledge, admissible, embedder)

    iterations = []  # all accepted: a rejected pass ends the loop
    termination = "MaxSteps"
    while len(iterations) < config.max_steps:
        request = GenerationRequest(task, grounded, tuple(it.translated_text for it in iterations))
        try:
            result = next_step(generator, request)
        except TransportError as err:
            err.partial_trace = _entries(iterations)
            raise
        if not result.text:
            termination = "GeneratorExhausted"
            break
        step, cos = translate(result.text, admissible, embedder)
        accepted = _effective(result.confidence, cos) >= config.theta
        iterations.append(_shared(Iteration(result.text, result.confidence, step.text, cos, accepted, result.flagged)))
        if not accepted:
            termination = "BelowThreshold"
            break

    return PlanResult(task=task, iterations=tuple(iterations), termination=termination)
