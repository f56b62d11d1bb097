"""Seeded synthetic inputs for the benchmark workloads.

Everything here depends only on the workload name and the seed: the same
pair gives byte-identical graph, admissible, task and reference files.
Nothing is downloaded and nothing from the package under test is read,
so a change to the program cannot change its own inputs.

Node names are pseudo-words built from consonant-vowel syllables without
the letter "e"; they never end in "ed" or "ing" and are not English
closed-class words, so the entity tagger reads them as nouns.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field

_CONSONANTS = "bdgklmnptvz"
_VOWELS = "aiou"

# Household nouns; all are nouns in the tagger's lexicon.
OBJECTS = (
    "dish cup plate bowl pan sink table towel lamp sofa television remote bed "
    "pillow window door floor shirt book phone computer chair light mirror "
    "toilet soap sponge oven fridge kitchen"
).split()

# Verbs the tagger knows as verbs; they open every task name.
TASK_VERBS = (
    "wash clean fold fix sweep check open close feed charge empty fill "
    "rinse scrub wipe dry prepare"
).split()

# Action phrases of the plan-translate admissible set. An admissible
# step is "<action> <object>".
ACTIONS = (
    "walk to|run to|find|grab|sit on|watch|switch on|switch off|turn to|look at|"
    "put back|put on|take off|open|close|touch|push|pull|enter|leave|wipe|scrub|"
    "wash|rinse|pour|drink|eat|read|type on|point at|drop|lie on|squeeze|plug in|"
    "plug out|cut|cover|dry|fold|check"
).split("|")

# Robothow actions (bracketed program grammar) with a natural-language
# render template in the package data; references are written with them.
PROGRAM_ACTIONS = (
    "Walk Run Find Grab Sit Watch SwitchOn SwitchOff TurnTo LookAt PutBack PutOn "
    "TakeOff Open Close Touch Push Pull Enter Leave Wipe Scrub Wash Rinse Pour "
    "Drink Eat Read Type PointAt Greet Drop Lie Squeeze PlugIn PlugOut Cut Cover"
).split()

HOUSEHOLD = (
    "Synonym AtLocation CapableOf Causes CausesDesire HasPrerequisite HasSubevent "
    "HasLastSubevent UsedFor"
).split()


class Words:
    """Draws distinct pseudo-words of three or four syllables."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def __call__(self):
        while True:
            w = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                for _ in range(self.rng.choice((3, 4)))
            )
            if w not in self.used:
                self.used.add(w)
                return w


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _weight(rng, lo=1.0, hi=3.0):
    return round(rng.uniform(lo, hi), 3)


def _key(text):
    return text.replace(" ", "_")


@dataclass
class Corpus:
    """Paths of the generated files, the in-memory tasks and predictions,
    and the properties each workload's reason depends on."""

    files: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)
    predictions: list = field(default_factory=list)  # natural step texts per pair
    same_distribution: list = field(default_factory=list)  # pair indexes
    props: dict = field(default_factory=dict)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _reference_steps(rng, objects, n):
    return [
        f"[{rng.choice(PROGRAM_ACTIONS)}] <{rng.choice(objects)}> (1)" for _ in range(n)
    ]


# ------------------------------------------------------------ plan-translate

TRANSLATE_COMMUNITIES = 2000
TRANSLATE_TASKS = 400
CLI_TASKS = 50  # tasks in the dataset file of the CLI round
TRANSLATE_OBJECTS = 12  # admissible set = len(ACTIONS) x this
STEP_NODES = 14
DISTRACTORS = 12


def plan_translate(seed, workdir):
    """A ~100k-edge JSONL graph of small task neighbourhoods.

    Community i belongs to task "<Verb> <w> <object>". Its two anchors, the
    verb phrase and the noun phrase, lead to step nodes "<action> <w>
    <object>" that share three features with the task text and survive
    selection, and to distractor nodes that share none and are pruned.
    Step nodes are chained by Causes and HasSubevent edges so knowledge
    lines mention more actions than the kept tails alone.
    """
    rng = _rng("plan-translate", seed)
    words = Words(rng)
    objects = rng.sample(OBJECTS, TRANSLATE_OBJECTS)
    actions = list(ACTIONS)

    edges = []
    tasks, references = [], []
    for _ in range(TRANSLATE_COMMUNITIES):
        verb = rng.choice(TASK_VERBS)
        obj = rng.choice(objects)
        qualifier = words()
        np_key = f"{qualifier}_{obj}"
        vp_key = f"{verb}_{np_key}"
        tasks.append(f"{verb.capitalize()} {qualifier} {obj}")
        steps = [f"{a} {qualifier} {obj}" for a in rng.sample(actions, STEP_NODES)]
        step_keys = [_key(s) for s in steps]
        for i, sk in enumerate(step_keys):
            head = vp_key if i % 2 == 0 else np_key
            rel = ("HasPrerequisite", "HasSubevent", "UsedFor", "CapableOf")[i % 4]
            edges.append((head, rel, sk, _weight(rng)))
            if i + 1 < len(step_keys):
                rel = "Causes" if i % 3 else "HasSubevent"
                edges.append((sk, rel, step_keys[i + 1], _weight(rng)))
        edges.append((vp_key, "HasLastSubevent", step_keys[-1], _weight(rng)))
        # the task's own text embeds to the task vector, so this tail always
        # survives selection and every plan has at least one step
        edges.append((np_key, "HasSubevent", vp_key, _weight(rng)))
        for _ in range(DISTRACTORS):
            d = f"{words()}_{words()}"
            edges.append((rng.choice((vp_key, np_key)), rng.choice(HOUSEHOLD), d, _weight(rng)))
            edges.append((d, rng.choice(HOUSEHOLD), words(), _weight(rng)))
        references.append(_reference_steps(rng, objects, rng.randint(5, 12)))

    order = list(range(len(tasks)))
    rng.shuffle(order)
    chosen = order[:TRANSLATE_TASKS]

    graph_path = os.path.join(workdir, "translate_graph.jsonl")
    _write_lines(
        graph_path,
        (
            json.dumps({"head": h, "relation": r, "tail": t, "weight": w}, sort_keys=True)
            for h, r, t, w in edges
        ),
    )
    admissible_path = os.path.join(workdir, "translate_admissible.json")
    _write_json(admissible_path, {"actions": actions, "objects": objects})
    dataset_path = os.path.join(workdir, "translate_tasks.jsonl")
    _write_lines(
        dataset_path,
        (
            json.dumps({"task": tasks[i], "steps": references[i]}, sort_keys=True)
            for i in chosen[:CLI_TASKS]
        ),
    )
    return Corpus(
        files={"graph": graph_path, "admissible": admissible_path, "dataset": dataset_path},
        tasks=[tasks[i] for i in chosen],
        props={
            "graph_format": "jsonl",
            "edge_rows": len(edges),
            "duplicate_row_share": round(1 - len({e[:3] for e in edges}) / len(edges), 4),
            "admissible_size": len(actions) * len(objects),
            "hub_fanout_max": max(Counter(n for e in edges for n in e[:3:2]).values()),
            "tasks_in_corpus": len(chosen),
        },
    )


# ------------------------------------------------------------ plan-retrieve

RETRIEVE_HUBS = 70
HUB_ITEMS = 300
ITEM_LINKS = 4
HUB_DUPLICATE_SHARE = 0.4
FOREIGN_ROWS = 2000
OFF_LIST_ROWS = 2000
RETRIEVE_TASKS = 400
RETRIEVE_ACTIONS = ("find", "grab", "walk to", "open", "close", "wipe", "wash", "check")
RETRIEVE_OBJECTS = 10


def _uri(key, sense=None):
    return f"/c/en/{key}" if sense is None else f"/c/en/{key}/{sense}"


def _tsv(rel, head_uri, tail_uri, weight):
    meta = json.dumps({"weight": weight}, sort_keys=True)
    return f"/a/[/r/{rel}/,{head_uri}/,{tail_uri}/]\t/r/{rel}\t{head_uri}\t{tail_uri}\t{meta}"


def plan_retrieve(seed, workdir):
    """A ConceptNet-TSV graph of hub clusters.

    Each hub is a noun phrase "<w> <object>" with HUB_ITEMS household edges
    (more than the fanout cap of 100) to its own item nodes; items link to
    ITEM_LINKS other items of the same cluster, so a three-hop sample from
    a hub covers most of its cluster. A share of the hub rows is repeated
    with sense-suffixed URIs (``/c/en/x/n``), which collapse onto the same
    key. Non-English rows and non-household relations are mixed in and
    must be dropped. Each hub also has one item that repeats the task
    chunk verbatim, so only a few knowledge lines survive selection.
    """
    rng = _rng("plan-retrieve", seed)
    words = Words(rng)
    objects = rng.sample(OBJECTS, RETRIEVE_OBJECTS)
    rows = []
    hubs = []
    duplicates = 0
    for _ in range(RETRIEVE_HUBS):
        verb = rng.choice(TASK_VERBS)
        obj = rng.choice(objects)
        qualifier = words()
        hub = f"{qualifier}_{obj}"
        chunk = f"{verb} the {qualifier} {obj}"
        hubs.append((hub, chunk))
        items = [f"{words()}_{words()}" for _ in range(HUB_ITEMS)]
        hub_rows = []
        # the on-task item carries a top weight so the fanout cap keeps it
        hub_rows.append(("HasPrerequisite", hub, _key(chunk), _weight(rng, 3.0, 4.0)))
        for item in items:
            hub_rows.append((rng.choice(HOUSEHOLD), hub, item, _weight(rng)))
        for rel, h, t, w in hub_rows:
            rows.append(_tsv(rel, _uri(h), _uri(t), w))
            if rng.random() < HUB_DUPLICATE_SHARE:
                duplicates += 1
                rows.append(_tsv(rel, _uri(h, "n"), _uri(t, "n/wn/artifact"), _weight(rng)))
        for item in items:
            for other in rng.sample(items, ITEM_LINKS):
                if other != item:
                    rows.append(_tsv(rng.choice(HOUSEHOLD), _uri(item), _uri(other), _weight(rng)))
    for _ in range(FOREIGN_ROWS):
        rows.append(_tsv("UsedFor", f"/c/fr/{words()}", f"/c/fr/{words()}", _weight(rng)))
    for _ in range(OFF_LIST_ROWS):
        hub = rng.choice(hubs)[0]
        rows.append(_tsv("RelatedTo", _uri(hub), _uri(words()), _weight(rng)))
    rng.shuffle(rows)

    tasks = []
    for _ in range(RETRIEVE_TASKS):
        picked = rng.sample(hubs, 3)
        chunks = [chunk for _, chunk in picked]
        tasks.append(f"{chunks[0].capitalize()}, {chunks[1]} and {chunks[2]}")

    steps = [f"{a} {o}" for a in RETRIEVE_ACTIONS for o in objects]
    graph_path = os.path.join(workdir, "retrieve_graph.tsv")
    _write_lines(graph_path, rows)
    admissible_path = os.path.join(workdir, "retrieve_admissible.json")
    _write_json(admissible_path, {"steps": steps})
    return Corpus(
        files={"graph": graph_path, "admissible": admissible_path},
        tasks=tasks,
        props={
            "graph_format": "conceptnet-tsv",
            "edge_rows": len(rows),
            "duplicate_row_share": round(duplicates / len(rows), 4),
            "admissible_size": len(steps),
            "hub_fanout_max": HUB_ITEMS + 1,
            "tasks_in_corpus": len(tasks),
        },
    )


# ------------------------------------------------------------ eval-pairs

EVAL_PAIRS = 3000
EVAL_OBJECTS = 24
SAME_DISTRIBUTION_SHARE = 0.03


def eval_pairs(seed, workdir):
    """Plan/reference pairs of 5-30 steps over one shared vocabulary.

    References are robothow program lines; predictions are natural step
    texts that reuse part of the reference's actions and objects. A few
    predictions are the reference's own rendered steps in another order,
    so the two token distributions are identical and WMD short-circuits.
    """
    rng = _rng("eval-pairs", seed)
    objects = rng.sample(OBJECTS, EVAL_OBJECTS)
    references, predictions, same = [], [], []
    for i in range(EVAL_PAIRS):
        ref = _reference_steps(rng, [o.replace(" ", "_") for o in objects], rng.randint(5, 30))
        references.append(ref)
        if rng.random() < SAME_DISTRIBUTION_SHARE:
            same.append(i)
            predictions.append(None)  # filled in by the workload from the rendered reference
            continue
        n = rng.randint(5, 30)
        pred = []
        for _ in range(n):
            if rng.random() < 0.5:
                obj = rng.choice(ref).split("<", 1)[1].split(">", 1)[0].replace("_", " ")
            else:
                obj = rng.choice(objects)
            pred.append(f"{rng.choice(ACTIONS)} {obj}")
        predictions.append(pred)
    tasks = [f"eval task {i}" for i in range(EVAL_PAIRS)]
    dataset_path = os.path.join(workdir, "eval_references.jsonl")
    _write_lines(
        dataset_path,
        (
            json.dumps({"task": t, "steps": r}, sort_keys=True)
            for t, r in zip(tasks, references)
        ),
    )
    return Corpus(
        files={"dataset": dataset_path},
        tasks=tasks,
        predictions=predictions,
        same_distribution=same,
        props={
            "pairs_in_corpus": EVAL_PAIRS,
            "same_distribution_pairs": len(same),
            "vocabulary_objects": EVAL_OBJECTS,
            "vocabulary_actions": len(PROGRAM_ACTIONS) + len(ACTIONS),
        },
    )
