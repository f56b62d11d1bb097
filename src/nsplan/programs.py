"""Structured program/step grammar and task dataset loading.

The structured step line grammar is

    [ ACTION ] WS < OBJECT > WS ( INT )

optionally preceded by an index prefix of the form "3." or "Step 3:".
Action and object text survive parsing verbatim (case included).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources

from ._files import read_lines

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


class _Scanner:
    def __init__(self, line):
        self.line = line
        self.pos = 0

    def error(self, message):
        raise StepParseError(message, column=self.pos + 1)

    def eof(self):
        return self.pos >= len(self.line)

    def peek(self):
        return "" if self.eof() else self.line[self.pos]

    def skip_ws(self):
        while not self.eof() and self.line[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def until(self, ch, what):
        start = self.pos
        end = self.line.find(ch, start)
        if end < 0:
            self.pos = len(self.line)
            self.error(f"unterminated {what}, expected {ch!r}")
        text = self.line[start:end]
        if not text.strip():
            self.error(f"empty {what}")
        self.pos = end
        return text.strip()

    def digits(self, what):
        start = self.pos
        while not self.eof() and self.line[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        return int(self.line[start : self.pos])


def _skip_index_prefix(sc):
    """Consume an optional "N." / "N:" / "Step N:" prefix."""
    sc.skip_ws()
    mark = sc.pos
    rest = sc.line[sc.pos :]
    if rest.lower().startswith("step") and len(rest) > 4 and not rest[4].isalnum():
        sc.pos += 4
        sc.skip_ws()
    start = sc.pos
    while not sc.eof() and sc.line[sc.pos].isdigit():
        sc.pos += 1
    if sc.pos > start and sc.peek() in ".:":
        sc.pos += 1
        sc.skip_ws()
    else:
        sc.pos = mark


def parse_robothow_step(line):
    """Parse one structured step line into a StructuredStep, raising
    StepParseError with a column position on the first mismatch."""
    sc = _Scanner(line)
    _skip_index_prefix(sc)
    sc.expect("[")
    action = sc.until("]", "action")
    sc.expect("]")
    sc.skip_ws()
    sc.expect("<")
    obj = sc.until(">", "object")
    sc.expect(">")
    sc.skip_ws()
    sc.expect("(")
    instance = sc.digits("instance number")
    sc.expect(")")
    sc.skip_ws()
    if not sc.eof():
        sc.error("trailing text after step")
    return StructuredStep(action=action, object=obj, instance=instance)


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


def _sample_from_robothow(obj):
    task, steps = obj["task"], obj["steps"]
    if not isinstance(task, str) or not is_str_list(steps):
        raise ValueError("expected {'task': str, 'steps': [str]}")
    for s in steps:
        parse_robothow_step(s)  # validate
    return TaskSample(task=task, reference_plan=tuple(steps), domain="robothow")


def _sample_from_wikihow(obj):
    title, headlines = obj["title"], obj["headlines"]
    if not isinstance(title, str) or not is_str_list(headlines):
        raise ValueError("expected {'title': str, 'headlines': [str]}")
    return TaskSample(task=title, reference_plan=tuple(headlines), domain="wikihow")


def _parse_line(build, line):
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    return build(obj)


def load_task_dataset(path, fmt="robothow-jsonl", strict=True):
    """Load a JSONL task dataset. A bad line raises InputError, naming the
    file and line, in strict mode; otherwise it is logged and skipped,
    keeping every other sample."""
    builders = {"robothow-jsonl": _sample_from_robothow, "wikihow-jsonl": _sample_from_wikihow}
    if fmt not in builders:
        raise ValueError(f"unknown dataset format {fmt!r}")
    bad = []
    parse = partial(_parse_line, builders[fmt])
    samples = list(read_lines(path, parse, None if strict else bad))
    for err in bad:
        log.warning("skipping dataset line: %s", err)
    return samples
