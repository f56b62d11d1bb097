"""Command-line harness: configuration, batch runs, reports.

Configuration is one flat JSON document; every key can be overridden on
the command line as ``--key value`` (underscores become dashes), and
flags win over the file. A run manifest echoes the resolved config, so a
manifest is itself a valid ``--config`` input for reproducing the run.

Subcommands: ingest, plan, counterfactual, eval, frontdoor-check,
inspect. The remote providers read their bearer token from the
NSPLAN_API_KEY environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import __version__, causal, counterfactual, embeddings, entities, kg, planner, programs
from ._files import read_json, write_json, write_jsonl, write_text
from .admissible import load_admissible_set, translate_prompt
from .embeddings import HashEmbedding, RemoteEmbedding, TableEmbedding
from .errors import ConfigError
from .generation import (
    GenerationRequest,
    KnowledgeFollowerGenerator,
    RemoteGenerator,
    ScriptedGenerator,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2

# Fields naming an input file, which must exist when a command requires them.
INPUT_FILES = ("graph", "dataset", "admissible", "generator_fixture", "embedding_path")


@dataclass(frozen=True)
class RunConfig(planner.PlannerConfig):
    """The planning hyperparameters (inherited, validated by PlannerConfig)
    followed by the run settings. A RunConfig is itself the planner config
    of a run."""

    # providers, each chosen by which of its inputs is set
    endpoint: str = None
    model: str = "text-davinci-003"
    generator_fixture: str = None
    follower_schedule: tuple = (1.0,)
    embedding_path: str = None
    embedding_endpoint: str = None
    embedding_dim: int = 256
    # inputs
    graph: str = None
    graph_format: str = "conceptnet-tsv"
    dataset: str = None
    admissible: str = None
    predictions: str = None
    task: str = None
    # run controls
    out: str = "runs"
    seed: int = None
    jobs: int = 1
    strict: bool = False
    trials: int = 500

    def __post_init__(self):
        for first, second in (("generator_fixture", "endpoint"), ("embedding_path", "embedding_endpoint")):
            if getattr(self, first) is not None and getattr(self, second) is not None:
                raise ConfigError(f"{first} and {second}: each chooses a provider; set one of them")
        if self.jobs < 1:
            raise ConfigError(f"jobs: must be >= 1, got {self.jobs}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim: must be >= 1, got {self.embedding_dim}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        schedule = tuple(float(c) for c in self.follower_schedule)
        object.__setattr__(self, "follower_schedule", schedule)
        super().__post_init__()

    def to_json(self):
        return dataclasses.asdict(self)  # json.dumps writes the schedule tuple as a list

    def require(self, *fields):
        """Command-specific presence checks with field-level messages; a
        required input file must also exist."""
        for name in fields:
            value = getattr(self, name)
            if value in (None, ""):
                raise ConfigError(f"{name}: required for this command (set --{name.replace('_', '-')})")
            if name in INPUT_FILES and not os.path.exists(value):
                raise ConfigError(f"{name}: file not found: {value}")
        return self


def _parse_schedule(text):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


# Per field annotation: the argparse keywords of its flag, and the JSON
# types a config file may give it (a list for a tuple holds numbers).
_FIELD_KINDS = {
    "int": ({"type": int, "metavar": "N"}, (int,)),
    "float": ({"type": float, "metavar": "R"}, (int, float)),
    "bool": ({"action": "store_true"}, (bool,)),
    "tuple": ({"type": _parse_schedule, "metavar": "R,R,..."}, (list,)),
    "str": ({}, (str,)),
}


def add_config_flags(parser):
    parser.add_argument("--config", default=None, metavar="PATH", help="JSON config (or a prior run manifest)")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, default=None, **_FIELD_KINDS[f.type][0])


def _check_config_value(f, value):
    """A config-file value must fit the field's JSON types; null only where the default is None."""
    if value is None and f.default is None:
        return
    fits = type(value) in _FIELD_KINDS[f.type][1]
    if fits and f.type == "tuple":
        fits = all(type(v) in (int, float) for v in value)
    if not fits:
        raise ConfigError(f"{f.name}: expected a {f.type} value, got {json.dumps(value)}")


def load_config(args):
    """Resolve defaults < config file < command-line flags."""
    values = {}
    if args.config:
        document = read_json(args.config, lambda message: ConfigError(f"config file {message}"))
        if not isinstance(document, dict):
            raise ConfigError(f"config file must hold a JSON object: {args.config}")
        if "config" in document and isinstance(document["config"], dict):
            document = document["config"]  # a manifest echoes its config
        known = {f.name: f for f in dataclasses.fields(RunConfig)}
        unknown = sorted(set(document) - set(known))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in document.items():
            _check_config_value(known[name], value)
        values.update(document)
    for f in dataclasses.fields(RunConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            values[f.name] = override
    return RunConfig(**values)


def _api_key():
    return os.environ.get("NSPLAN_API_KEY")


def build_embedder(config):
    """Table for an embedding_path, remote for an embedding_endpoint, else hash."""
    if config.embedding_path is not None:
        config.require("embedding_path")
        return TableEmbedding(path=config.embedding_path)
    if config.embedding_endpoint is not None:
        config.require("embedding_endpoint")
        return RemoteEmbedding(
            endpoint=config.embedding_endpoint, dim=config.embedding_dim, api_key=_api_key()
        )
    return HashEmbedding(dim=config.embedding_dim, seed=config.seed or 0)


def build_generator(config):
    """Scripted for a generator_fixture, remote for an endpoint, else the follower."""
    if config.generator_fixture is not None:
        config.require("generator_fixture")
        return ScriptedGenerator(config.generator_fixture)
    if config.endpoint is not None:
        config.require("endpoint")
        return RemoteGenerator(endpoint=config.endpoint, model=config.model, api_key=_api_key())
    try:
        return KnowledgeFollowerGenerator(schedule=config.follower_schedule)
    except ValueError as err:
        raise ConfigError(f"follower_schedule: {err}") from None


def task_id(index, task):
    slug = re.sub(r"[^a-z0-9]+", "-", task.lower()).strip("-") or "task"
    return f"{index:04d}-{slug}"


def _reference_text(sample):
    """Reference plan as natural text; structured program lines are
    rendered through the action templates first."""
    from . import metrics

    steps = list(sample.reference_plan)
    if sample.domain == "robothow":
        steps = [
            programs.render_step(programs.parse_robothow_step(line), style="natural")
            for line in steps
        ]
    return metrics.plan_text(steps)


def _versions():
    import numpy

    return {
        "nsplan": __version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def run_plan(config):
    """Plan every task in the dataset; one PlanResult JSON per task plus a
    manifest. Exit 0 only when no task aborted."""
    config.require("graph", "dataset", "admissible")
    admissible = load_admissible_set(config.admissible)
    samples = programs.load_task_dataset(config.dataset, strict=config.strict)
    if not samples:
        raise ValueError(f"dataset {config.dataset} has no samples")
    embedder = build_embedder(config)
    generator = build_generator(config)
    graph = kg.ingest(config.graph, fmt=config.graph_format)

    os.makedirs(config.out, exist_ok=True)
    started = time.time()

    def plan_one(job):
        index, sample = job
        tid = task_id(index, sample.task)
        try:
            result = planner.plan(
                sample.task, graph, admissible, generator, embedder, config=config
            )
        except Exception as err:  # a failed task is recorded, not fatal
            return tid, sample, None, err
        return tid, sample, result, None

    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        outcomes = list(pool.map(plan_one, enumerate(samples)))

    entries = []
    for tid, sample, result, error in outcomes:
        if error is None:
            filename = f"{tid}.json"
            write_json(os.path.join(config.out, filename), {"id": tid, **result.to_json()})
            entries.append(
                {"id": tid, "task": sample.task, "status": "ok", "file": filename,
                 "termination": result.termination, "steps": len(result.steps)}
            )
        else:
            entry = {"id": tid, "task": sample.task, "status": "failed",
                     "error": f"{type(error).__name__}: {error}"}
            if hasattr(error, "partial_trace"):  # planner.plan's record of how far the task got
                entry["trace"] = [dict(step) for step in error.partial_trace]
            entries.append(entry)

    # memo and fallback counts vary with --jobs interleaving, so they sit under timing
    embedding = embeddings.memo_counts(embedder)
    if isinstance(embedder, TableEmbedding):
        embedding["table_misses"] = embedder.miss_count
    manifest = {
        "command": "plan",
        "config": config.to_json(),
        "versions": _versions(),
        "timing": {
            "started": datetime.datetime.fromtimestamp(started, datetime.timezone.utc).isoformat(),
            "elapsed_s": round(time.time() - started, 3),
            "embedding": embedding,
            "translation": admissible.memo_counts(embedder),
            "memo_clears": {
                "embedding": embeddings.memo_clears(embedder),
                "translation": admissible.memo_clears(embedder),
                "balls": kg.ball_clears(graph),
            },
        },
        "tasks": entries,
    }
    write_json(os.path.join(config.out, "manifest.json"), manifest)
    failed = [e for e in entries if e["status"] == "failed"]
    print(f"planned {len(entries) - len(failed)}/{len(entries)} tasks -> {config.out}")
    for entry in failed:
        print(f"  failed {entry['id']}: {entry['error']}", file=sys.stderr)
    return EXIT_FAILED if failed else EXIT_OK


def _read_prediction(path):
    """A plan file's task id and step texts; any other file is a ValueError naming it."""
    obj = read_json(path, lambda message: ValueError(f"prediction file {message}"))
    steps = obj.get("steps") if isinstance(obj, dict) else None
    if not (isinstance(steps, list) and isinstance(obj.get("id"), str)
            and all(isinstance(s, dict) and isinstance(s.get("text"), str) for s in steps)):
        raise ValueError(f'prediction file {path} must hold {{"id": str, "steps": [{{"text": str}}, ...]}}')
    return obj["id"], [s["text"] for s in steps]


def run_eval(config):
    """Score a directory of plan files against the reference dataset,
    aligned by task id. A task that cannot be scored (an empty plan or an
    unrenderable reference) is listed in the report; the exit code is 1 then."""
    from . import metrics  # only the command that scores loads the metrics module

    config.require("predictions", "dataset")
    references = programs.load_task_dataset(config.dataset, strict=config.strict)
    ref_by_id = {task_id(i, s.task): s for i, s in enumerate(references)}

    if not os.path.isdir(config.predictions):
        raise ConfigError(f"predictions: not a directory: {config.predictions}")
    # manifest.json and report.json are written by nsplan itself; no plan file is named so
    own = ("manifest.json", "report.json")
    names = [n for n in sorted(os.listdir(config.predictions)) if n.endswith(".json") and n not in own]
    pred_by_id, file_by_id = {}, {}
    for path in (os.path.join(config.predictions, n) for n in names):
        tid, steps = _read_prediction(path)
        if tid in file_by_id:
            raise ValueError(f"prediction files {file_by_id[tid]} and {path} both hold task {tid}")
        pred_by_id[tid], file_by_id[tid] = steps, path
    if not pred_by_id:
        raise ValueError(f"no prediction files found in {config.predictions}")

    missing_refs = sorted(set(pred_by_id) - set(ref_by_id))
    missing_preds = sorted(set(ref_by_id) - set(pred_by_id))
    if missing_refs or missing_preds:
        parts = []
        if missing_refs:
            parts.append(f"predictions without references: {', '.join(missing_refs)}")
        if missing_preds:
            parts.append(f"references without predictions: {', '.join(missing_preds)}")
        raise ValueError("task id mismatch: " + "; ".join(parts))

    embedder = build_embedder(config)
    rows, unrenderable = [], []
    for tid in sorted(pred_by_id):
        try:
            rows.append((tid, metrics.plan_text(pred_by_id[tid]), _reference_text(ref_by_id[tid])))
        except ValueError as err:  # a reference step with no natural template
            unrenderable.append((tid, err))
    report = metrics.evaluate_corpus(rows, embedder, unrenderable)
    os.makedirs(config.out, exist_ok=True)
    write_json(os.path.join(config.out, "report.json"), report.to_json())
    table = report.to_table()
    write_text(os.path.join(config.out, "report.txt"), table + "\n")
    print(table)
    for row in report.failed:
        print(f"  failed {row['id']}: {row['error']}", file=sys.stderr)
    return EXIT_FAILED if report.failed else EXIT_OK


def run_ingest(config):
    """Parse and filter a knowledge graph file; write it back out as JSONL
    triplets with ingest statistics."""
    config.require("graph")
    graph = kg.ingest(config.graph, fmt=config.graph_format, strict=config.strict)
    os.makedirs(config.out, exist_ok=True)
    out_path = os.path.join(config.out, "graph.jsonl")
    write_text(out_path, graph.to_jsonl())
    stats = graph.stats
    print(f"kept {graph.edge_count} triplets ({graph.node_count} nodes, {graph.edge_count} edges)")
    print(
        f"dropped: relation={stats.dropped_relation} language={stats.dropped_language} "
        f"malformed={stats.dropped_malformed} duplicates={stats.duplicates}"
    )
    print(f"wrote {out_path}")
    return EXIT_OK


def run_counterfactual(config):
    """Emit the three intervened datasets as JSONL next to each other."""
    config.require("dataset", "seed", "admissible")
    samples = programs.load_task_dataset(config.dataset, strict=config.strict)
    if not samples:
        raise ValueError(f"dataset {config.dataset} has no samples")
    admissible = load_admissible_set(config.admissible)
    locations = sorted({obj.lower().replace("_", " ") for obj in admissible.objects})
    if not locations:
        raise ConfigError("admissible: set has no objects to use as locations")

    rng = random.Random(config.seed)
    initial = [
        counterfactual.intervene_initial_configuration(s, rng.choice(locations)) for s in samples
    ]
    intermediate = [
        counterfactual.intervene_intermediate_step(s, rng.randrange(2**32)) for s in samples
    ]
    final = []
    if len(samples) >= 2:
        for i, sample in enumerate(samples):
            j = rng.randrange(len(samples) - 1)
            if j >= i:
                j += 1
            final.append(counterfactual.intervene_final_goal(sample, samples[j]))

    os.makedirs(config.out, exist_ok=True)
    for name, rows in (("initial", initial), ("intermediate", intermediate), ("final", final)):
        path = os.path.join(config.out, f"counterfactual_{name}.jsonl")
        write_jsonl(path, [s.to_json() for s in rows])
        print(f"wrote {len(rows):4d} samples -> {path}")
    return EXIT_OK


def run_frontdoor_check(config):
    """Seeded random-SCM trials of the front-door identity plus the
    hand-built confounded example."""
    config.require("seed")
    worst = {"frontdoor": 0.0, "front1": 0.0, "front2": 0.0}
    for i in range(config.trials):
        scm = causal.random_scm(config.seed + i)
        worst["frontdoor"] = max(worst["frontdoor"], causal.frontdoor_gap(scm))
        worst["front1"] = max(worst["front1"], causal.front1_gap(scm))
        worst["front2"] = max(worst["front2"], causal.front2_gap(scm))

    demo = causal.confounded_example()
    joint = demo.observational_joint()
    naive = joint.conditional_s_given_t("t1")
    truth = causal.surgery_distribution(demo, {"T": "t1", "S_prev": "v0"})
    estimate = causal.frontdoor_estimate(joint, {"T": "t1", "S_prev": "v0"})
    confounding = max(abs(naive[s] - truth[s]) for s in demo.supports["S"])
    recovery = max(abs(estimate[s] - truth[s]) for s in demo.supports["S"])

    ok = all(v < 1e-9 for v in worst.values()) and confounding >= 0.1 and recovery < 1e-9
    print(f"trials                      {config.trials} (seed {config.seed})")
    print(f"max |frontdoor - surgery|   {worst['frontdoor']:.3e}")
    print(f"max front1 gap              {worst['front1']:.3e}")
    print(f"max front2 gap              {worst['front2']:.3e}")
    print(f"confounded demo |cond-int|  {confounding:.3f}")
    print(f"confounded demo recovery    {recovery:.3e}")
    print("front-door identity holds" if ok else "FRONT-DOOR CHECK FAILED")

    os.makedirs(config.out, exist_ok=True)
    write_json(
        os.path.join(config.out, "frontdoor_report.json"),
        {
            "trials": config.trials,
            "seed": config.seed,
            "worst_gaps": worst,
            "confounded_demo": {
                "conditional_vs_interventional": confounding,
                "frontdoor_recovery_gap": recovery,
            },
            "ok": ok,
        },
    )
    return EXIT_OK if ok else EXIT_FAILED


def run_inspect(config):
    """Print the intermediate artifacts of the prompt pipeline for one
    task: parsed entities, raw knowledge lines, grounded lines, and the
    aggregate prompt."""
    config.require("task", "graph", "admissible")
    admissible = load_admissible_set(config.admissible)
    embedder = build_embedder(config)
    graph = kg.ingest(config.graph, fmt=config.graph_format)

    parsed = entities.parse_entities(config.task, graph=graph)
    print(f"task: {config.task}")
    print("entities:")
    for ent in parsed.entities:
        marker = "*" if ent.key in graph else " "
        print(f"  {marker} {ent.key} ({ent.kind})")
    knowledge = planner.knowledge_for_task(config.task, graph, embedder, config)
    print(f"knowledge lines ({len(knowledge)}):")
    for line in knowledge:
        print(f"  {line}")
    grounded = translate_prompt(knowledge, admissible, embedder)
    print(f"grounded lines ({len(grounded)}):")
    for line in grounded:
        print(f"  {line}")
    print("prompt:")
    for line in GenerationRequest(config.task, grounded).prompt.splitlines():
        print(f"  | {line}")
    return EXIT_OK


COMMANDS = {
    "ingest": run_ingest,
    "plan": run_plan,
    "counterfactual": run_counterfactual,
    "eval": run_eval,
    "frontdoor-check": run_frontdoor_check,
    "inspect": run_inspect,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nsplan",
        description="Knowledge-graph prompted procedural planning and its evaluation tools.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        # a prefix of a flag is no flag, so --generator is not --generator-fixture
        sub = subparsers.add_parser(name, help=handler.__doc__, allow_abbrev=False)
        add_config_flags(sub)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return COMMANDS[args.command](config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
