"""Structured program/step grammar and task dataset loading.

The structured step line grammar is

    [ ACTION ] WS < OBJECT > WS ( N ) WS

after optional whitespace and an optional index prefix "3.", "3:" or
"Step 3:" ("step" in any ASCII case). N and the index are ASCII digits, and
N is at least 1. ACTION runs to the first "]" and OBJECT to the first ">";
each is stripped of edge whitespace, must not be blank, and keeps its case.
WS is any run of whitespace, possibly empty.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from ._files import read_jsonl

log = logging.getLogger(__name__)


class StepParseError(ValueError):
    """A structured step line that does not match the grammar; ``column``
    is the 1-based position of the first offending character."""

    def __init__(self, message, column):
        super().__init__(f"column {column}: {message}")
        self.column = column


@dataclass(frozen=True)
class StructuredStep:
    action: str
    object: str
    instance: int

    def __post_init__(self):
        if self.instance < 1:
            raise ValueError("instance must be a positive integer")


@dataclass(frozen=True)
class TaskSample:
    task: str
    reference_plan: tuple[str, ...]
    domain: str = "generic"


# An optional "N." / "N:" / "Step N:" prefix, then the step. Each part after
# "[" is optional and nested in the one before, so a line that does not fit
# still matches up to its first misfit, and the first absent group names it.
# "Step" is spelled out per letter because re.I would also take "ſ" for "s";
# [^\W_] is exactly str.isalnum, so "Steps 3:" is no prefix.
_STEP = re.compile(
    r"\s*(?:(?:[Ss][Tt][Ee][Pp](?![^\W_])\s*)?[0-9]+[.:]\s*)?"
    r"(?P<open>\[(?P<action>[^\]]*)"
    r"(?P<action_end>\]\s*(?P<lt><(?P<object>[^>]*)"
    r"(?P<object_end>>\s*(?P<lp>\((?:(?P<instance>[0-9]+)"
    r"(?P<rp>\)\s*)?)?)?)?)?)?)?"
)

# In grammar order: each group and the error of a line where it is absent
# (the column is where the match stopped) or blank (the column is its start).
_PARTS = (
    ("open", "expected '['"),
    ("action_end", "unterminated action, expected ']'"),
    ("action", "empty action"),
    ("lt", "expected '<'"),
    ("object_end", "unterminated object, expected '>'"),
    ("object", "empty object"),
    ("lp", "expected '('"),
    ("instance", "expected instance number"),
    ("rp", "expected ')'"),
)


def parse_robothow_step(line):
    """Parse one structured step line into a StructuredStep, raising
    StepParseError with a column position on the first mismatch."""
    m = _STEP.match(line)
    # The groups nest, so a matched "rp" means every group matched, and
    # only these four checks can fail; the ordered checks name a failure.
    if m["rp"] is not None and m.end() == len(line):
        action, obj = m["action"].strip(), m["object"].strip()
        if action and obj and (instance := int(m["instance"])) >= 1:
            return StructuredStep(action=action, object=obj, instance=instance)
    for group, message in _PARTS:
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


@lru_cache(maxsize=1)
def action_templates():
    text = resources.files("nsplan.data").joinpath("action_templates.json").read_text("utf-8")
    return json.loads(text)


def render_step(step, style="dataset"):
    """Render a StructuredStep.

    dataset style reproduces the bracketed grammar exactly; natural style
    lowercases and applies the per-action render template.
    """
    if style == "dataset":
        return f"[{step.action}] <{step.object}> ({step.instance})"
    if style != "natural":
        raise ValueError(f"unknown render style {style!r}")
    templates = action_templates()
    key = step.action.lower().replace(" ", "").replace("_", "")
    pattern = templates.get(key)
    if pattern is None:
        known = ", ".join(sorted(templates))
        raise ValueError(f"no natural template for action {step.action!r}; known actions: {known}")
    obj = step.object.lower().replace("_", " ")
    return pattern.format(object=obj)


def is_str_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# The dataset schemas: a line holding a schema's task key is of that schema.
_SCHEMAS = (("task", "steps", "robothow"), ("title", "headlines", "wikihow"))


def _sample(obj):
    for task_key, plan_key, domain in _SCHEMAS:
        if task_key in obj:
            task, plan = obj[task_key], obj[plan_key]
            if not isinstance(task, str) or not is_str_list(plan):
                raise ValueError(f"expected {{'{task_key}': str, '{plan_key}': [str]}}")
            if domain == "robothow":
                for step in plan:
                    parse_robothow_step(step)  # validate
            return TaskSample(task=task, reference_plan=tuple(plan), domain=domain)
    raise ValueError("expected a RobotHow line {'task': str, 'steps': [str]} "
                     "or a WikiHow line {'title': str, 'headlines': [str]}")


def load_task_dataset(path, strict=True):
    """Load a JSONL task dataset, each line a RobotHow program or a WikiHow
    article by its keys. A bad line raises InputError, naming the file and
    line, in strict mode; otherwise it is logged and skipped, keeping every
    other sample."""
    bad = []
    samples = list(read_jsonl(path, _sample, None if strict else bad))
    for err in bad:
        log.warning("skipping dataset line: %s", err)
    return samples
