"""Verbalization of a tuple of adapted triplets into the knowledge prompt.

Each household relation's symbolic rule, a ``(template, recursive, phase)``
tuple, is its entry in ``kg.HOUSEHOLD_RELATIONS``, the only rule table; a
triplet of any other relation is a ValueError naming it. Lines come out
grouped by phase (Prerequisite, Body, Subevent, LastSubevent) and ordered
by adapted weight within a phase. Rules marked recursive additionally
expand the tail node's own recursive triplets depth-first: the triplets of
a recursive relation whose head is that tail, in adapted order across
phases (a prerequisite may follow a subevent; the golden depends on it).

Traversal contract, frozen here because it fixes every downstream golden:
every phase-ordered triplet is a DFS root at depth 0; a triplet's line is
emitted only while its depth is below max_depth; the walk always descends
through recursive tails (bounded by a visited set of triplet keys), so a
depth-blocked triplet is consumed and never re-emitted later as a root.
Duplicate line texts are suppressed globally. With max_depth equal to the
sampling radius this verbalizes exactly the sampled ball on chain graphs.
"""

from __future__ import annotations

from .kg import HOUSEHOLD_RELATIONS, PHASES, adapted_sort_key, surface


def _rule(relation):
    rule = HOUSEHOLD_RELATIONS.get(relation)
    if rule is None:
        raise ValueError(f"no symbolic rule for relation {relation!r}")
    return rule


def build_knowledge_prompt(triplets, max_depth=3):
    """Linearize adapted triplets into a tuple of ordered, duplicate-free
    knowledge lines (see the module docstring for the traversal contract)."""
    ruled = [(t, *_rule(t.relation)) for t in sorted(triplets, key=adapted_sort_key)]
    children = {}  # a node's recursive triplets, in adapted order across phases
    for entry in ruled:
        t, _, recursive, _ = entry
        if recursive:
            children.setdefault(t.head, []).append(entry)

    lines = {}  # insertion-ordered: the first copy of a line text stays
    visited = set()

    def visit(entry, depth):
        t, template, recursive, _ = entry
        if t.key in visited:
            return
        visited.add(t.key)
        if depth < max_depth:
            lines.setdefault(template.format(head=surface(t.head), tail=surface(t.tail)))
        if recursive:
            for child in children.get(t.tail, ()):
                visit(child, depth + 1)

    for entry in sorted(ruled, key=lambda entry: PHASES.index(entry[3])):
        visit(entry, 0)
    return tuple(lines)
