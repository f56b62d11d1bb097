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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PlanResult:
    task: str
    steps: tuple
    termination: str
    trace: tuple = ()

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")

    def __len__(self):
        return len(self.steps)

    def to_json(self):
        return {
            "task": self.task,
            "steps": [s.to_json() for s in self.steps],
            "termination": self.termination,
            "trace": [dict(entry) for entry in self.trace],
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

    steps = []
    trace = []
    termination = "MaxSteps"
    while len(steps) < config.max_steps:
        request = GenerationRequest(task, grounded, tuple(s.text for s in steps))
        try:
            result = next_step(generator, request)
        except TransportError as err:
            err.partial_trace = tuple(trace)
            raise
        if not result.text:
            termination = "GeneratorExhausted"
            break
        step, cos = translate(result.text, admissible, embedder)
        effective = result.confidence * max(cos, 0.0)
        entry = {
            "iteration": len(steps) + 1,
            "generated_text": result.text,
            "generation_confidence": result.confidence,
            "translated_text": step.text,
            "translation_cosine": cos,
            "effective_confidence": effective,
            "accepted": effective >= config.theta,
        }
        if result.flagged:
            # the service sent no logprobs; the key is absent otherwise, so
            # offline plan files keep their bytes
            entry["confidence_defaulted"] = True
        trace.append(entry)
        if effective < config.theta:
            termination = "BelowThreshold"
            break
        steps.append(PlanStep(text=step.text, confidence=effective))

    return PlanResult(
        task=task, steps=tuple(steps), termination=termination, trace=tuple(trace)
    )
