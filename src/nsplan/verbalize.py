"""Verbalization of a tuple of adapted triplets into the knowledge prompt.

Each household relation (``kg.HOUSEHOLD_RELATIONS``) owns one template rule
with a phase in ``DEFAULT_RULES``, the only rule table; a triplet of any
other relation raises UnmappedRelationError. Lines come out grouped by
phase (Prerequisite, Body, Subevent, LastSubevent) and ordered by adapted
weight within a phase. Rules marked recursive additionally expand the tail
node's own prerequisite/subevent triplets depth-first.

Traversal contract, frozen here because it fixes every downstream golden:
every phase-ordered triplet is a DFS root at depth 0; a triplet's line is
emitted only while its depth is below max_depth; the walk always descends
through recursive tails (bounded by a visited set), so a depth-blocked
triplet is consumed and never re-emitted later as a root. Duplicate line
texts are suppressed globally. With max_depth equal to the sampling radius
this verbalizes exactly the sampled ball on chain graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kg import adapted_sort_key, surface

PHASES = ("Prerequisite", "Body", "Subevent", "LastSubevent")


class UnmappedRelationError(KeyError):
    def __init__(self, relation):
        super().__init__(f"no symbolic rule for relation {relation!r}")
        self.relation = relation


@dataclass(frozen=True)
class SymbolicRule:
    relation: str
    template: str
    recursive: bool
    phase: str

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")


# The UsedFor template reads reversed against the usual head-UsedFor-tail
# direction; it is kept as-is deliberately. See the project notes.
DEFAULT_RULES = {r[0]: SymbolicRule(*r) for r in (
    ("Synonym", "{head}, also known as {tail}", False, "Body"),
    ("AtLocation", "go to the location of {head}", False, "Body"),
    ("CapableOf", "{head} can {tail}", False, "Body"),
    ("Causes", "{head} causes {tail}", False, "Body"),
    ("CausesDesire", "{head} makes you want to {tail}", False, "Body"),
    ("UsedFor", "go to find {tail} and use it for {head}", False, "Body"),
    ("HasPrerequisite", "{tail}", True, "Prerequisite"),
    ("HasSubevent", "{tail}", True, "Subevent"),
    ("HasLastSubevent", "{tail}", False, "LastSubevent"),
)}


def verbalize_triplet(triplet):
    rule = DEFAULT_RULES.get(triplet.relation)
    if rule is None:
        raise UnmappedRelationError(triplet.relation)
    return rule.template.format(head=surface(triplet.head), tail=surface(triplet.tail))


def build_knowledge_prompt(triplets, max_depth=3):
    """Linearize adapted triplets into a tuple of ordered, duplicate-free
    knowledge lines (see the module docstring for the traversal contract)."""
    ordered = sorted(triplets, key=adapted_sort_key)
    for t in ordered:
        if t.relation not in DEFAULT_RULES:
            raise UnmappedRelationError(t.relation)

    children = {}
    for t in ordered:
        if DEFAULT_RULES[t.relation].recursive:
            children.setdefault(t.head, []).append(t)

    lines = []
    seen_lines = set()
    visited = set()

    def visit(t, depth):
        if t.key in visited:
            return
        visited.add(t.key)
        if depth < max_depth:
            line = verbalize_triplet(t)
            if line not in seen_lines:
                seen_lines.add(line)
                lines.append(line)
        if DEFAULT_RULES[t.relation].recursive:
            for child in children.get(t.tail, ()):
                visit(child, depth + 1)

    for phase in PHASES:
        for t in ordered:
            if DEFAULT_RULES[t.relation].phase == phase:
                visit(t, 0)
    return tuple(lines)
