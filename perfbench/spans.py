"""In-memory span recorder and the wrappers that put it around each layer.

A span is (id, name, start_ns, end_ns, parent_id, op_id). The parent is
the innermost open span of the same thread; the op id is the id of the
enclosing operation span (a plan or a scored pair), so all spans of one
operation share it. A call into a layer made from inside the same layer
(``translate`` inside ``translate_prompt``, ``wmd_transport`` inside
``wmd``) opens no span of its own, so a layer's self time is its spans'
time minus the time of the child spans of other layers.

The wrappers are installed on module attributes of the package under
test from the benchmark's own process and removed afterwards; the
program's source is not touched. Some names are bound at import time
(``planner`` imports ``translate``, ``translate_prompt`` and
``next_step``; ``cli`` imports ``translate_prompt``), so each importer's
attribute is patched as well as the defining module's.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict

from nsplan.planner import TERMINATIONS

# Per-layer metrics of a traced run, with units. Times of the timed phase
# are self seconds per operation; set-up times (ingest, warm, load) are
# inclusive seconds per call.
LAYER_METRICS = {
    "kg.ingest_s": "s",
    "kg.ingest_duplicates": "count",
    "kg.ingest_dropped": "count",
    "kg.sample_s": "s",
    "kg.subgraph_triplets": "count",
    "entities.parse_s": "s",
    "entities.anchor_ratio": "1",
    "embeddings.embed_calls": "count",
    "embeddings.embed_s": "s",
    "embeddings.distinct_ratio": "1",
    "adaption.adapt_s": "s",
    "adaption.select_s": "s",
    "adaption.kept_ratio": "1",
    "verbalize.build_s": "s",
    "verbalize.lines": "count",
    "admissible.warm_s": "s",
    "admissible.ground_s": "s",
    "admissible.translate_s": "s",
    "admissible.translate_calls": "count",
    "admissible.candidates_scored": "count",
    "generation.next_step_s": "s",
    "generation.prompt_bytes": "B",
    "planner.self_s": "s",
    "planner.steps_per_plan": "count",
    "planner.accept_ratio": "1",
    "planner.termination.MaxSteps": "1",
    "planner.termination.BelowThreshold": "1",
    "planner.termination.GeneratorExhausted": "1",
    "metrics.wmd_s": "s",
    "metrics.embed_f1_s": "s",
    "metrics.bleu_s": "s",
    "metrics.rouge_s": "s",
    "metrics.wmd_lp_cells": "count",
    "metrics.wmd_short_circuit_ratio": "1",
    "programs.load_s": "s",
    "programs.render_s": "s",
    "cli.plan_cmd_s": "s",
    "cli.eval_cmd_s": "s",
    "cli.worker_busy_ratio": "1",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "1",
    "trace.translate_share": "1",
    "trace.metrics_share": "1",
}

METRIC_SPANS = ("metrics.wmd", "metrics.embed_f1", "metrics.bleu", "metrics.rouge")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.ingest_stats = []
        self._texts = set()
        self._warmed = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def call(self, name, fn, args=(), kwargs=None, op=False, nested=False):
        """Run fn inside a span called ``name``; ``op`` marks an operation
        and ``nested`` opens a span even inside a span of the same layer."""
        kwargs = kwargs or {}
        layer = name.split(".", 1)[0]
        stack = self._stack()
        if stack and stack[-1][1] == layer and not nested:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        op_id = sid if op else (stack[-1][2] if stack else None)
        stack.append((sid, layer, op_id))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, stack[-1][0] if stack else None, op_id))

    def wrap(self, name, fn, after=None, op=False):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, op)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def embedded(self, text):
        with self._lock:
            self.counts["embeddings.calls"] += 1
            self._texts.add(text)

    def first_warm(self, admissible, provider):
        with self._lock:
            key = (id(admissible), id(provider))
            if key in self._warmed:
                return False
            self._warmed[key] = (admissible, provider)  # keeps ids from being reused
            return True

    def reset_counts(self):
        with self._lock:
            self.counts.clear()
            self._texts.clear()

    def distinct_texts(self):
        return len(self._texts)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid}\t{name}\t{start}\t{end}\t{parent or ''}\t{op or ''}\n")

    def totals(self, since=0):
        """Per span name: (self ns, inclusive ns, span count), over spans
        whose id is greater than ``since``."""
        spans = [s for s in self.spans if s[0] > since]
        child = defaultdict(int)
        for sid, name, start, end, parent, op in spans:
            if parent is not None:
                child[parent] += end - start
        own, incl, n = defaultdict(int), defaultdict(int), Counter()
        for sid, name, start, end, parent, op in spans:
            own[name] += end - start - child.get(sid, 0)
            incl[name] += end - start
            n[name] += 1
        return own, incl, n

    def mark(self):
        return next(self._ids)


class CountingEmbedder:
    """Counting proxy around the embedder the benchmark hands the program."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.dim = inner.dim
        self.kind = inner.kind
        self._tracer = tracer

    def embed(self, text):
        self._tracer.embedded(text)
        return self._tracer.call("embeddings.embed", self.inner.embed, (text,))


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def install(tracer, patches):
    """Wrap the public entry points of every traced layer."""
    from nsplan import adaption, admissible, cli, entities, generation, kg, metrics
    from nsplan import planner, programs, verbalize

    def patch(modules, attr, name, after=None, op=False):
        wrapped = tracer.wrap(name, getattr(modules[0], attr), after, op)
        for module in modules:
            patches.set(module, attr, wrapped)

    def after_ingest(graph, *args, **kwargs):
        tracer.ingest_stats.append(graph.stats)

    def after_sample(sub, *args, **kwargs):
        tracer.add("kg.samples")
        tracer.add("kg.subgraph_triplets", len(sub))

    def after_parse(parsed, task, graph=None):
        keys = parsed.keys()
        tracer.add("entities.keys", len(keys))
        if graph is not None:
            tracer.add("entities.anchors", sum(k in graph for k in keys))

    def after_select(kept, subgraph, *args, **kwargs):
        tracer.add("adaption.sampled", len(subgraph))
        tracer.add("adaption.kept", len(kept))

    def after_build(prompt, *args, **kwargs):
        tracer.add("verbalize.builds")
        tracer.add("verbalize.lines", len(prompt))

    def after_translate(result, text, steps, provider):
        tracer.add("admissible.translate_calls")
        tracer.add("admissible.candidates_scored", len(steps))

    def after_next_step(result, provider, request):
        tracer.add("generation.calls")
        tracer.add("generation.prompt_bytes", len(request.prompt.encode("utf-8")))

    def after_plan(result, *args, **kwargs):
        tracer.add("planner.plans")
        tracer.add("planner.steps", len(result.steps))
        tracer.add("planner.iterations", len(result.trace))
        tracer.add("planner.accepted", sum(1 for e in result.trace if e["accepted"]))
        tracer.add(f"planner.termination.{result.termination}")

    def after_wmd(result, *args, **kwargs):
        tracer.add("metrics.wmd_calls")

    def after_transport(result, *args, **kwargs):
        tracer.add("metrics.wmd_lp")
        tracer.add("metrics.wmd_lp_cells", int(result.plan.size))

    patch([kg], "ingest", "kg.ingest", after_ingest)
    patch([kg], "sample_subgraph", "kg.sample", after_sample)
    patch([entities], "parse_entities", "entities.parse", after_parse)
    patch([adaption], "adapt_weights", "adaption.adapt")
    patch([adaption], "select", "adaption.select", after_select)
    patch([verbalize], "build_knowledge_prompt", "verbalize.build", after_build)
    patch([admissible, planner], "translate", "admissible.translate", after_translate)
    patch([admissible, planner, cli], "translate_prompt", "admissible.ground")
    patch([generation, planner], "next_step", "generation.next_step", after_next_step)
    patch([planner], "plan", "planner.plan", after_plan, op=True)
    patch([metrics], "wmd", "metrics.wmd", after_wmd)
    patch([metrics], "wmd_transport", "metrics.wmd", after_transport)
    patch([metrics], "embed_match_f1", "metrics.embed_f1")
    patch([metrics], "sentence_bleu", "metrics.bleu")
    patch([metrics], "rouge1_f1", "metrics.rouge")
    patch([programs], "load_task_dataset", "programs.load")
    patch([programs], "parse_robothow_step", "programs.parse")
    patch([programs], "render_step", "programs.render")

    vectors = admissible.AdmissibleSet.vectors

    def traced_vectors(self, provider):
        if tracer.first_warm(self, provider):
            # the first lookup warms the cache, often from inside translate
            return tracer.call("admissible.warm", vectors, (self, provider), nested=True)
        return vectors(self, provider)

    patches.set(admissible.AdmissibleSet, "vectors", traced_vectors)

    build_embedder = cli.build_embedder
    patches.set(cli, "build_embedder", lambda config: CountingEmbedder(build_embedder(config), tracer))


def layer_metrics(tracer, since, ops, traced_rate, untraced_ops_per_s):
    """Derive every per-layer metric: per-operation figures from the spans
    recorded after the mark ``since`` and the counters of the traced
    phase, per-call set-up figures from all spans."""
    own, incl, _ = tracer.totals(since)
    _, incl_all, n_all = tracer.totals()
    c = tracer.counts
    ops = max(ops, 1)

    def per_op(*names):
        return sum(own[name] for name in names) / 1e9 / ops

    def per_call(name):  # set-up calls may precede the traced phase
        return incl_all[name] / 1e9 / n_all[name] if n_all[name] else 0.0

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    stats = tracer.ingest_stats
    plan_time = incl["planner.plan"]
    pair_time = incl["bench.pair"]
    m = {
        "kg.ingest_s": per_call("kg.ingest"),
        "kg.ingest_duplicates": sum(s.duplicates for s in stats) / len(stats) if stats else 0,
        "kg.ingest_dropped": sum(s.dropped for s in stats) / len(stats) if stats else 0,
        "kg.sample_s": per_op("kg.sample"),
        "kg.subgraph_triplets": ratio("kg.subgraph_triplets", "kg.samples"),
        "entities.parse_s": per_op("entities.parse"),
        "entities.anchor_ratio": ratio("entities.anchors", "entities.keys"),
        "embeddings.embed_calls": c["embeddings.calls"] / ops,
        "embeddings.embed_s": per_op("embeddings.embed"),
        "embeddings.distinct_ratio": (
            tracer.distinct_texts() / c["embeddings.calls"] if c["embeddings.calls"] else 0.0
        ),
        "adaption.adapt_s": per_op("adaption.adapt"),
        "adaption.select_s": per_op("adaption.select"),
        "adaption.kept_ratio": ratio("adaption.kept", "adaption.sampled"),
        "verbalize.build_s": per_op("verbalize.build"),
        "verbalize.lines": ratio("verbalize.lines", "verbalize.builds"),
        "admissible.warm_s": per_call("admissible.warm"),
        "admissible.ground_s": per_op("admissible.ground"),
        "admissible.translate_s": per_op("admissible.translate"),
        "admissible.translate_calls": c["admissible.translate_calls"] / ops,
        "admissible.candidates_scored": c["admissible.candidates_scored"] / ops,
        "generation.next_step_s": per_op("generation.next_step"),
        "generation.prompt_bytes": ratio("generation.prompt_bytes", "generation.calls"),
        "planner.self_s": per_op("planner.plan"),
        "planner.steps_per_plan": ratio("planner.steps", "planner.plans"),
        "planner.accept_ratio": ratio("planner.accepted", "planner.iterations"),
        "metrics.wmd_s": per_op("metrics.wmd"),
        "metrics.embed_f1_s": per_op("metrics.embed_f1"),
        "metrics.bleu_s": per_op("metrics.bleu"),
        "metrics.rouge_s": per_op("metrics.rouge"),
        "metrics.wmd_lp_cells": c["metrics.wmd_lp_cells"] / ops,
        "metrics.wmd_short_circuit_ratio": (
            1.0 - c["metrics.wmd_lp"] / c["metrics.wmd_calls"] if c["metrics.wmd_calls"] else 0.0
        ),
        "programs.load_s": per_call("programs.load"),
        "programs.render_s": per_op("programs.parse", "programs.render"),
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.overhead_ratio": untraced_ops_per_s / traced_rate - 1.0 if traced_rate else 0.0,
        "trace.translate_share": (
            (own["admissible.ground"] + own["admissible.translate"]) / plan_time if plan_time else 0.0
        ),
        "trace.metrics_share": (
            sum(own[name] for name in METRIC_SPANS) / pair_time if pair_time else 0.0
        ),
    }
    for term in TERMINATIONS:
        m[f"planner.termination.{term}"] = ratio(f"planner.termination.{term}", "planner.plans")
    m.update(cli_metrics(tracer, since))
    return m


def cli_metrics(tracer, since):
    """The cli layer's metrics from the spans recorded after ``since``;
    zero where no CLI command ran."""
    _, incl, n = tracer.totals(since)
    plan_cmd = incl["cli.plan_cmd"]
    return {
        "cli.plan_cmd_s": plan_cmd / 1e9 / n["cli.plan_cmd"] if plan_cmd else 0.0,
        "cli.eval_cmd_s": incl["cli.eval_cmd"] / 1e9 / n["cli.eval_cmd"] if n["cli.eval_cmd"] else 0.0,
        # the CLI round runs two worker threads
        "cli.worker_busy_ratio": incl["planner.plan"] / (2 * plan_cmd) if plan_cmd else 0.0,
    }
