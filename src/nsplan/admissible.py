"""Admissible step sets and embedding-space translation into them.

Translation is a cosine argmax over the whole set, so whatever the upstream
model produced, the output is always a member: the closed-world guarantee
the planner relies on. Ties break lexicographically on step text.

For the provider last asked about, the set keeps a read-only matrix of step
embeddings and a translation memo from text to (index, cosine). Translation
is a pure function of the text, the set and the provider, so the memo is
exact; the provider, its matrix and its memo are replaced together, as one
tuple, so a thread never pairs one provider's matrix with another's memo.
The memo is an ``embeddings.Memo`` bounded by ``MEMO_BUDGET_BYTES`` as
the vector store is (an insert that would go over the budget clears it first),
and its hit and miss counts are exact under threads.

``translate`` and ``translate_prompt`` share one path: the distinct texts
the memo lacks, in order of first appearance, are embedded with one
``embed_many`` and scored by one ``embeddings.best_rows``, which re-scores
only each text's shortlist row by row, so every result is bit-equal to a
plain per-candidate np.dot scan.
"""

from __future__ import annotations

import sys
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
    """Fixed list of admissible steps plus an embedding matrix and a
    translation memo for the provider last asked about. ``objects`` are the
    objects a set built from actions and objects was rendered from (empty
    for a flat step list).

    The matrix is warmed lazily under a lock; a warm matrix is read-only and
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
        self._lock = threading.Lock()
        self._grounding = (None, None, None)  # (provider, matrix, translation memo)

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __contains__(self, text):
        return text in self.texts

    def vectors(self, provider):
        """The read-only (N, d) float64 matrix whose row i embeds
        ``steps[i]`` under ``provider``; re-embedded when the provider changes."""
        return self._grounding_for(provider)[1]

    def memo_counts(self, provider):
        """{"hits": ..., "misses": ...} of the translation memo kept for
        ``provider``; zero while the set holds no memo of it."""
        held, _, memo = self._grounding
        return memo.counts() if held is provider else {"hits": 0, "misses": 0}

    def memo_clears(self, provider):
        """How many times the translation memo kept for ``provider`` cleared
        at its budget; zero while the set holds no memo of it."""
        held, _, memo = self._grounding
        return memo.clears if held is provider else 0

    def _grounding_for(self, provider):
        """(provider, matrix, translation memo), made afresh, all three at
        once, when the set held another provider's."""
        grounding = self._grounding
        if grounding[0] is not provider:
            with self._lock:
                grounding = self._grounding
                if grounding[0] is not provider:
                    matrix = embeddings.embed_many(provider, self.texts)
                    matrix.setflags(write=False)
                    grounding = self._grounding = (provider, matrix, embeddings.Memo(self._lock))
        return grounding


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


def _ground(texts, admissible, provider):
    """(index, cosine) of the step each of ``texts`` translates to. The
    memo answers the texts it holds; the distinct others, in order of first
    appearance, are embedded with one ``embed_many`` and scored with one
    ``best_rows``, then memoized. Each text asked for counts once, as a hit
    or, for the first of each distinct text scored here, a miss."""
    _, matrix, memo = admissible._grounding_for(provider)
    with memo.lock:
        found = {text: memo.entries.get(text) for text in texts}
        missing = [text for text, hit in found.items() if hit is None]
        memo.hits += len(texts) - len(missing)
        memo.misses += len(missing)
    if missing:
        rows = embeddings.best_rows(embeddings.embed_many(provider, missing), matrix, admissible.texts)
        with memo.lock:
            for text, hit in zip(missing, rows):
                found[text] = hit
                memo.insert(text, hit, sum(map(sys.getsizeof, (text, hit, *hit))))
    return [found[text] for text in texts]


def translate(text, admissible, provider):
    """Map free text onto the closest admissible step.

    Returns (step, confidence) where confidence is the winning cosine, ties
    to the lexicographically smallest text, bit-equal to a per-candidate
    np.dot scan.
    """
    [(index, cos)] = _ground((text,), admissible, provider)
    return admissible.steps[index], cos


def translate_prompt(prompt, admissible, provider):
    """Translate every knowledge line into a tuple of admissible step texts,
    preserving order and collapsing consecutive duplicates only (repeats
    further apart are meaningful)."""
    out = []
    for index, _ in _ground(prompt, admissible, provider):
        text = admissible.texts[index]
        if not out or out[-1] != text:
            out.append(text)
    return tuple(out)
