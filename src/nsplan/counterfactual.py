"""Counterfactual task construction.

Three intervention families over annotated task samples: constrain the
initial configuration to a location, pin a randomly chosen intermediate
step in the task name, or compose two tasks into one goal. All three are
pure constructors; inputs are never mutated. The join tokens ("in",
parentheses, "and") are deliberately hard-coded so fixtures stay stable.
``nsplan counterfactual`` writes each sample's ``to_json`` as one JSON line;
the package never reads them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .programs import TaskSample

KINDS = ("InitialConfiguration", "IntermediateStep", "FinalGoal")


def capitalize_words(text):
    """Uppercase the first letter of each space-separated word, leaving the
    rest of the word alone ("switch on TV" -> "Switch On TV")."""
    return " ".join(w[:1].upper() + w[1:] for w in text.split(" "))


@dataclass(frozen=True)
class CounterfactualSample:
    kind: str
    originals: tuple  # one TaskSample, or two for FinalGoal
    modified: TaskSample
    payload: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown intervention kind {self.kind!r}")
        expected = 2 if self.kind == "FinalGoal" else 1
        if len(self.originals) != expected:
            raise ValueError(
                f"{self.kind} expects {expected} original sample(s), got {len(self.originals)}"
            )

    def to_json(self):
        return {
            "kind": self.kind,
            "originals": [_task_to_json(t) for t in self.originals],
            "modified": _task_to_json(self.modified),
            "payload": self.payload,
        }


def _task_to_json(sample):
    return {
        "task": sample.task,
        "reference_plan": list(sample.reference_plan),
        "domain": sample.domain,
    }


def intervene_initial_configuration(sample, location):
    """Constrain where the task starts: the location lands in the task name
    and a walk step is prepended to the plan."""
    if not location:
        raise ValueError("location must be nonempty")
    modified = TaskSample(
        task=f"{sample.task} in {location}",
        reference_plan=(f"walk to {location}",) + tuple(sample.reference_plan),
        domain=sample.domain,
    )
    return CounterfactualSample(
        kind="InitialConfiguration",
        originals=(sample,),
        modified=modified,
        payload=location,
    )


def intervene_intermediate_step(sample, rng_seed):
    """Pin one uniformly sampled plan step inside the task name, capitalized
    word by word; the plan itself is unchanged."""
    if not sample.reference_plan:
        raise ValueError("reference plan must be nonempty to sample a step")
    rng = random.Random(rng_seed)
    step = sample.reference_plan[rng.randrange(len(sample.reference_plan))]
    modified = TaskSample(
        task=f"{sample.task} ({capitalize_words(step)})",
        reference_plan=tuple(sample.reference_plan),
        domain=sample.domain,
    )
    return CounterfactualSample(
        kind="IntermediateStep",
        originals=(sample,),
        modified=modified,
        payload=step,
    )


def intervene_final_goal(a, b):
    """Compose two tasks: names joined with "and", plans concatenated so the
    step positions run 1..|a|+|b|."""
    if not a.reference_plan or not b.reference_plan:
        raise ValueError("both reference plans must be nonempty")
    modified = TaskSample(
        task=f"{a.task} and {b.task}",
        reference_plan=tuple(a.reference_plan) + tuple(b.reference_plan),
        domain=a.domain if a.domain == b.domain else "generic",
    )
    return CounterfactualSample(
        kind="FinalGoal",
        originals=(a, b),
        modified=modified,
        payload=b.task,
    )
