"""Admissible step sets and embedding-space translation into them.

Translation is a cosine argmax over the whole set, so whatever the upstream
model produced, the output is always a member: the closed-world guarantee
the planner relies on. Ties break lexicographically on step text. The set
keeps a read-only matrix of step embeddings; ``translate``
scores it with one matrix-vector product and re-scores only a shortlist
row by row (``embeddings.best_row``), so the result is bit-equal to a plain
per-candidate np.dot scan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import embeddings
from ._files import read_json
from .errors import ConfigError
from .programs import is_str_list

DEFAULT_TEMPLATE = "{action} {object}"


@dataclass(frozen=True)
class AdmissibleStep:
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("admissible step text must be nonempty")


class AdmissibleSet:
    """Fixed list of admissible steps plus an embedding cache for the
    provider last asked about. ``objects`` are the objects a set built from
    actions and objects was rendered from (empty for a flat step list).

    The cache is warmed lazily under a lock; a warm matrix is read-only and
    safe to share across threads.
    """

    def __init__(self, steps, objects=()):
        steps = tuple(steps)
        if not steps:
            raise ConfigError("admissible set is empty")
        unique = {}
        for s in steps:
            unique.setdefault(s.text, s)  # the first step of each text
        self.steps = tuple(unique.values())
        self.texts = tuple(unique)  # texts[i] is steps[i].text
        self.objects = tuple(objects)
        self._matrix = None
        self._provider = None
        self._lock = threading.Lock()

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __contains__(self, text):
        return text in self.texts

    def vectors(self, provider):
        """The read-only (N, d) float64 matrix whose row i embeds
        ``steps[i]`` under ``provider``; re-embedded when the provider changes."""
        with self._lock:
            if self._provider is not provider:
                self._matrix = embeddings.embed_many(provider, self.texts)
                self._matrix.setflags(write=False)
                self._provider = provider
            return self._matrix


def build_admissible_set(actions, objects, templates=None):
    """Render the action x object product through per-action templates
    (default "<action> <object>") and deduplicate. A template must be a
    format string naming only {action} and {object}."""
    actions = list(actions)
    objects = list(objects)
    if not actions or not objects:
        raise ConfigError("admissible set needs at least one action and one object")
    templates = templates or {}
    steps = []
    for action in actions:
        pattern = templates.get(action, DEFAULT_TEMPLATE)
        try:
            for obj in objects:
                text = pattern.format(action=action, object=obj)
                steps.append(AdmissibleStep(text=text))
        except (LookupError, AttributeError, TypeError, ValueError) as err:
            raise ConfigError(f"action {action!r}: bad template {pattern!r} ({err!r})") from None
    return AdmissibleSet(steps, objects)


def load_admissible_set(path):
    """Load either {"actions", "objects", "templates"?} or a flat
    {"steps": [strings]} JSON file; any other document is a ConfigError."""
    data = read_json(path, lambda message: ConfigError(f"admissible: {message}"))
    data = data if isinstance(data, dict) else {}
    templates = data.get("templates", {})
    try:
        if "steps" in data:
            if is_str_list(data["steps"]) and all(data["steps"]):
                return AdmissibleSet(AdmissibleStep(text=s) for s in data["steps"])
        elif (is_str_list(data.get("actions")) and is_str_list(data.get("objects"))
              and isinstance(templates, dict) and is_str_list(list(templates.values()))):
            return build_admissible_set(data["actions"], data["objects"], templates)
    except ConfigError as err:
        raise ConfigError(f"admissible: {path} must hold a usable set: {err}") from None
    raise ConfigError(f'admissible: {path} must hold {{"steps": [nonempty str]}} or '
                      f'{{"actions": [str], "objects": [str], "templates"?: {{str: str}}}}')


def translate(text, admissible, provider):
    """Map free text onto the closest admissible step.

    Returns (step, confidence) where confidence is the winning cosine, ties
    to the lexicographically smallest text. ``embeddings.best_row`` scores
    the whole set with one matrix-vector product and returns the argmax
    bit-equal to a per-candidate np.dot scan.
    """
    query = embeddings.embed(provider, text)
    index, cos = embeddings.best_row(query, admissible.vectors(provider), admissible.texts)
    return admissible.steps[index], cos


def translate_prompt(prompt, admissible, provider):
    """Translate every knowledge line into a tuple of admissible step texts,
    preserving order and collapsing consecutive duplicates only (repeats
    further apart are meaningful)."""
    out = []
    for line in prompt:
        step, _ = translate(line, admissible, provider)
        if not out or out[-1] != step.text:
            out.append(step.text)
    return tuple(out)
