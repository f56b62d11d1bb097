"""The three workloads: set-up, a closed timed loop, and the correctness gate.

Every workload is a closed loop with one client, which sends its next
operation when the previous one has returned. An operation is one plan
(plan-translate, plan-retrieve) or one scored (prediction, reference) pair
(eval-pairs). After its timed phase plan-translate also runs one
``nsplan plan --jobs 2`` + ``nsplan eval`` round through the CLI.

The gate runs outside the timed sections. An operation that raised, or
whose output fails a check, is counted as failed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import oracles
from nsplan import cli, kg, metrics, planner, programs
from nsplan.admissible import load_admissible_set
from nsplan.embeddings import HashEmbedding, embed
from nsplan.generation import KnowledgeFollowerGenerator
from nsplan.planner import TERMINATIONS, PlannerConfig

import inputs
import spans

SETUP_REPEATS = 3
MIN_OPS = 100  # the p90 of 100 samples has 10 beyond it
TRACED_MIN_OPS = 30
HARD_LIMIT_S = 120.0  # no timed phase outlasts this, whatever MIN_OPS asks
ORACLE_SAMPLES = 20
REPLAY = 5
DIGEST_OPS = 30
WINDOW_S = 1.0
CALIBRATION_S = 0.1
# Reference-kernel calls per second that the reported times refer to;
# about what a quiet core of the two-core box the baseline ran on does.
REFERENCE_SPEED = 2400.0
CLI_JOBS = 2

# Confidence schedules of the follower generator. plan-retrieve drops
# below the default theta of 0.7 at the third step.
SCHEDULES = {"plan-translate": (1.0,), "plan-retrieve": (1.0, 1.0, 0.5)}

# Closed ranges every evaluation value must fall in. Embeddings are unit
# vectors, so a word mover's distance is at most 2.
EVAL_RANGES = {
    "s_bleu": (0.0, 1.0),
    "rouge1_f1": (0.0, 1.0),
    "wmd_distance": (0.0, 2.0),
    "wmd_similarity": (1.0 / 3.0, 1.0),
    "embed_match_f1": (0.0, 1.0),
}


@dataclass
class Run:
    attempted: int = 0
    bad: set = field(default_factory=set)  # indexes of failed operations
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    info: list = field(default_factory=list)

    def fail(self, op, message):
        self.bad.add(op)
        self.problems.append(f"op {op}: {message}")

    def report(self, name, value, unit):
        self.metrics[name] = (value, unit)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(load):
    """Run ``load`` SETUP_REPEATS times, dropping the previous value
    first; return the last value and the times at reference speed."""
    value, times = None, []
    for _ in range(SETUP_REPEATS):
        value = None
        gc.collect()
        before = machine_speed()
        start = time.perf_counter()
        value = load()
        elapsed = time.perf_counter() - start
        times.append(elapsed * (before + machine_speed()) / 2 / REFERENCE_SPEED)
    return value, times


def _reference_kernel():
    """A fixed slice of the kinds of work the program does: small numpy
    dot products, blake2b feature hashing and dict updates."""
    query = _KERNEL_ROWS[0]
    best = -2.0
    for row in _KERNEL_ROWS:
        if query.any() and row.any():
            best = max(best, float(np.dot(query, row)))
    counts = {}
    for i in range(64):
        key = hashlib.blake2b(f"{i}|reference".encode("utf-8"), digest_size=9).digest()
        counts[key] = counts.get(key, 0) + 1
    return best, len(counts)


_KERNEL_ROWS = np.random.default_rng(0).standard_normal((64, 256))


def machine_speed():
    """Reference-kernel calls per second on this machine right now."""
    calls, start = 0, time.perf_counter()
    while True:
        _reference_kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= CALIBRATION_S:
            return calls / elapsed


@dataclass
class Loop:
    """A closed timed loop cut into windows of about WINDOW_S seconds of
    work, with the machine speed measured at every window boundary."""

    outputs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds per call
    errors: dict = field(default_factory=dict)  # call index -> message
    windows: list = field(default_factory=list)  # (calls, work seconds) per window
    speeds: list = field(default_factory=list)  # reference speed at each boundary
    wall: float = 0.0  # work seconds, calibration excluded
    partial: bool = False  # the last window ended with the loop, short

    def factor(self, w):
        """REFERENCE_SPEED over the speed measured around window w."""
        return REFERENCE_SPEED / ((self.speeds[w] + self.speeds[w + 1]) / 2)

    def rate(self):
        """Median over windows of calls per second at reference speed. A
        short last window is left out unless it is the only one."""
        full = (self.windows[:-1] if self.partial else self.windows) or self.windows
        return median(calls / secs * self.factor(w) for w, (calls, secs) in enumerate(full))

    def scaled(self, per_call):
        """Per-call times at reference speed."""
        out, i = [], 0
        for w, (calls, _) in enumerate(self.windows):
            out.extend(t / self.factor(w) for t in per_call[i:i + calls])
            i += calls
        return out


def closed_loop(items, fn, seconds, min_ops):
    """Call fn on items in order (cycling) until ``seconds`` of work have
    passed and ``min_ops`` calls have returned."""
    loop = Loop(speeds=[machine_speed()])
    started = time.perf_counter()
    window_start, window_calls = started, 0
    while True:
        work = loop.wall + time.perf_counter() - window_start
        done = work >= seconds and len(loop.outputs) >= min_ops
        if done or time.perf_counter() - started >= HARD_LIMIT_S:
            break
        i = len(loop.outputs)
        began = time.perf_counter()
        try:
            out = fn(items[i % len(items)])
        except Exception as err:  # a failed operation is counted, not fatal
            out, loop.errors[i] = None, f"{type(err).__name__}: {err}"
        ended = time.perf_counter()
        loop.latencies.append(ended - began)
        loop.outputs.append(out)
        window_calls += 1
        if ended - window_start >= WINDOW_S:
            loop.windows.append((window_calls, ended - window_start))
            loop.wall += ended - window_start
            loop.speeds.append(machine_speed())
            window_start, window_calls = time.perf_counter(), 0
    if window_calls:
        loop.partial = True
        loop.windows.append((window_calls, time.perf_counter() - window_start))
        loop.wall += loop.windows[-1][1]
        loop.speeds.append(machine_speed())
    return loop


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def report_end_to_end(run, setup_times, rate, ops, loop, latencies, kind):
    """Record the end-to-end metrics, plus the same figures under the
    names of the operation kind for the human-readable report. Times and
    rates are at reference speed; the raw rate is printed beside them."""
    p50, p90 = percentile(latencies, 0.5) * 1e3, percentile(latencies, 0.9) * 1e3
    run.report("setup_s", sorted(setup_times)[len(setup_times) // 2], "s")
    run.report("ops_per_s", rate, "1/s")
    run.report("op_latency_p50_ms", p50, "ms")
    run.report("op_latency_p90_ms", p90, "ms")
    run.report("peak_rss_mb", peak_rss_mb(), "MiB")
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    run.info.append(f"setup_s {run.metrics['setup_s'][0]:.4f} s  (runs: {', '.join(f'{t:.4f}' for t in setup_times)})")
    speed = median(loop.speeds) / REFERENCE_SPEED
    run.info.append(
        f"{kind}s_per_s {rate:.3f} 1/s  (median of {len(loop.windows)} windows; {ops} {kind}s in "
        f"{loop.wall:.2f} s of work, {ops / loop.wall:.3f} 1/s raw; machine at {speed:.2f} x reference)"
    )
    run.info.append(f"{kind}_latency_p50_ms {p50:.3f} ms  ({len(latencies)} samples)")
    run.info.append(f"{kind}_latency_p90_ms {p90:.3f} ms  ({beyond} samples beyond it)")
    run.info.append(f"peak_rss_mb {run.metrics['peak_rss_mb'][0]:.1f} MiB")


# ------------------------------------------------------------ checks


class OracleView:
    """The ``.vector`` protocol the scan oracle expects."""

    def __init__(self, provider):
        self.provider = provider

    def vector(self, text):
        return embed(self.provider, text)


def plan_problems(result, admissible_texts, config):
    """Closure and loop-contract violations of one PlanResult."""
    problems = []
    if result.termination not in TERMINATIONS:
        problems.append(f"unknown termination {result.termination!r}")
    if len(result.steps) > config.max_steps:
        problems.append(f"{len(result.steps)} steps exceed max_steps")
    for step in result.steps:
        if step.text not in admissible_texts:
            problems.append(f"step {step.text!r} is not in the admissible set")
    accepted = [(e["translated_text"], e["effective_confidence"]) for e in result.trace if e["accepted"]]
    if accepted != [(s.text, s.confidence) for s in result.steps]:
        problems.append("steps disagree with the accepted trace entries")
    for e in result.trace:
        if e["accepted"] != (e["effective_confidence"] >= config.theta):
            problems.append(f"iteration {e['iteration']}: accepted flag disagrees with theta")
        if e["translated_text"] not in admissible_texts:
            problems.append(f"iteration {e['iteration']}: translation left the admissible set")
    rejected = [e for e in result.trace if not e["accepted"]]
    if result.termination == "BelowThreshold":
        if len(rejected) != 1 or result.trace[-1]["accepted"]:
            problems.append("BelowThreshold plan does not end on its one rejected step")
    elif rejected:
        problems.append("a rejected step did not end the plan")
    if result.termination == "MaxSteps" and len(result.steps) != config.max_steps:
        problems.append("MaxSteps plan is shorter than max_steps")
    return problems


def check_translations(run, plans, admissible, provider, base=0):
    """Compare an evenly spread sample of the plans' translations with the
    independent scan oracle, bit for bit in step and cosine."""
    entries = [(i, e) for i, plan in enumerate(plans[:DIGEST_OPS]) if plan for e in plan.trace]
    if not entries:
        return 0
    stride = max(1, len(entries) // ORACLE_SAMPLES)
    picked = entries[::stride][:ORACLE_SAMPLES]
    candidates = [s.text for s in admissible.steps]
    view = OracleView(provider)
    for i, e in picked:
        want = oracles.translate_scan_oracle(e["generated_text"], candidates, view)
        got = (e["translated_text"], e["translation_cosine"])
        if got != want:
            run.fail(base + i, f"translation of {e['generated_text']!r} is {got}, oracle says {want}")
    return len(picked)


def check_plans(run, tasks, plans, errors, replan, admissible, provider, config, base=0):
    """The gate for one batch of plans produced in a timed phase."""
    texts = {s.text for s in admissible.steps}
    for i, result in enumerate(plans):
        if i in errors:
            run.fail(base + i, errors[i])
            continue
        for problem in plan_problems(result, texts, config):
            run.fail(base + i, f"{result.task!r}: {problem}")
    sampled = check_translations(run, plans, admissible, provider, base)
    for i in range(min(REPLAY, len(plans))):
        if plans[i] is not None and replan(tasks[i % len(tasks)]).dumps() != plans[i].dumps():
            run.fail(base + i, "planning the task again gave a different PlanResult")
    run.info.append(
        f"gate: {len(plans)} plans closed and loop-consistent, {sampled} translations "
        f"checked against the scan oracle, {min(REPLAY, len(plans))} replanned"
    )


def row_problems(row):
    problems = []
    for name, (lo, hi) in EVAL_RANGES.items():
        value = row[name]
        if not (math.isfinite(value) and lo <= value <= hi):
            problems.append(f"{name}={value!r} outside [{lo}, {hi}]")
    return problems


# ------------------------------------------------------------ plan workloads


def load_planning_inputs(corpus, embedder):
    graph = kg.load_graph(corpus.files["graph"], fmt=corpus.props["graph_format"])
    admissible = load_admissible_set(corpus.files["admissible"])
    admissible.vectors(embedder)
    return graph, admissible


def plan_workload(name, seed, seconds, tracing, workdir, trace_path):
    run = Run()
    make = inputs.plan_translate if name == "plan-translate" else inputs.plan_retrieve
    corpus = make(seed, workdir)
    run.info.append("inputs " + " ".join(f"{k}={v}" for k, v in corpus.props.items()))
    embedder = HashEmbedding()
    (graph, admissible), setup_times = timed_setup(lambda: load_planning_inputs(corpus, embedder))
    generator = KnowledgeFollowerGenerator(SCHEDULES[name])
    config = PlannerConfig()

    def replan(task):
        return planner.plan(task, graph, admissible, generator, embedder, config=config)

    phase = seconds / 2 if tracing else seconds
    loop = closed_loop(corpus.tasks, replan, phase, TRACED_MIN_OPS if tracing else MIN_OPS)
    plans = loop.outputs
    run.attempted += len(plans)
    if not tracing:
        report_end_to_end(run, setup_times, loop.rate(), len(plans), loop, loop.scaled(loop.latencies), "plan")
    else:
        tracer, patches = spans.Tracer(), spans.Patches()
        spans.install(tracer, patches)
        try:
            proxy = spans.CountingEmbedder(HashEmbedding(), tracer)
            traced_graph, traced_admissible = load_planning_inputs(corpus, proxy)
            mark = tracer.mark()
            tracer.reset_counts()

            def traced_plan(task):
                return planner.plan(task, traced_graph, traced_admissible, generator, proxy, config=config)

            traced = closed_loop(corpus.tasks, traced_plan, phase, TRACED_MIN_OPS)
        finally:
            patches.restore()
        report_layers(run, tracer, mark, len(traced.outputs), traced.rate(), traced.wall, loop.rate())
        check_plans(
            run, corpus.tasks, traced.outputs, traced.errors, replan, admissible, embedder, config,
            base=len(plans),
        )
        run.attempted += len(traced.outputs)
    check_plans(run, corpus.tasks, plans, loop.errors, replan, admissible, embedder, config)
    run.info.append("digest " + digest(p.dumps() if p else "" for p in plans[:DIGEST_OPS]))
    if name == "plan-translate":
        # the CLI's own round, outside the timed phase: traced, it gives
        # the cli layer's metrics; either way its output is gated
        if tracing:
            mark = tracer.mark()
            spans.install(tracer, patches)
            try:
                round_ = cli_round(corpus, workdir, tracer.call)
            finally:
                patches.restore()
            for metric, value in spans.cli_metrics(tracer, mark).items():
                run.report(metric, value, spans.LAYER_METRICS[metric])
        else:
            round_ = cli_round(corpus, workdir, lambda span, fn, args: fn(*args))
        check_cli_round(run, corpus, round_, replan, base=run.attempted)
    if tracing:
        tracer.write(trace_path)
    return run


def report_layers(run, tracer, mark, ops, rate, wall, untraced_rate):
    """Record the per-layer metrics of a traced phase. Both rates are
    medians of windows, so the overhead compares like with like."""
    values = spans.layer_metrics(tracer, mark, ops, rate, untraced_rate)
    for name, unit in spans.LAYER_METRICS.items():
        run.report(name, values[name], unit)
    run.info.append(f"trace: {len(tracer.spans)} spans, {ops} traced operations in {wall:.2f} s")
    run.info.append(
        f"tracing overhead: {values['trace.ops_per_s']:.3f} traced vs "
        f"{values['trace.untraced_ops_per_s']:.3f} untraced ops/s "
        f"({values['trace.overhead_ratio']:+.1%})"
    )


# ------------------------------------------------------------ eval-pairs


def render_reference(sample):
    """Reference plan text as ``nsplan eval`` builds it."""
    steps = [
        programs.render_step(programs.parse_robothow_step(line), style="natural")
        for line in sample.reference_plan
    ]
    return metrics.plan_text(steps)


def eval_workload(seed, seconds, tracing, workdir, trace_path):
    run = Run()
    corpus = inputs.eval_pairs(seed, workdir)
    run.info.append("inputs " + " ".join(f"{k}={v}" for k, v in corpus.props.items()))
    samples, setup_times = timed_setup(lambda: programs.load_task_dataset(corpus.files["dataset"]))
    predictions = list(corpus.predictions)
    for i in corpus.same_distribution:  # the reference's own steps, reversed
        steps = render_reference(samples[i]).split(". ")
        predictions[i] = steps[::-1]
    embedder = HashEmbedding()
    indexes = list(range(len(samples)))

    def score(i, provider, pair_latencies):
        ref = render_reference(samples[i])
        pred = metrics.plan_text(predictions[i])
        began = time.perf_counter()
        row = metrics.evaluate_pair(pred, ref, provider)
        pair_latencies.append(time.perf_counter() - began)
        return row

    phase = seconds / 2 if tracing else seconds
    latencies = []
    loop = closed_loop(
        indexes, lambda i: score(i, embedder, latencies), phase, TRACED_MIN_OPS if tracing else MIN_OPS
    )
    rows = loop.outputs
    run.attempted += len(rows)
    batches = [(rows, loop.errors, 0)]
    if not tracing:
        report_end_to_end(run, setup_times, loop.rate(), len(rows), loop, loop.scaled(latencies), "pair")
    else:
        tracer, patches = spans.Tracer(), spans.Patches()
        spans.install(tracer, patches)
        try:
            proxy = spans.CountingEmbedder(HashEmbedding(), tracer)
            programs.load_task_dataset(corpus.files["dataset"])
            mark = tracer.mark()
            tracer.reset_counts()
            traced = closed_loop(
                indexes,
                lambda i: tracer.call("bench.pair", score, (i, proxy, []), op=True),
                phase,
                TRACED_MIN_OPS,
            )
        finally:
            patches.restore()
        tracer.write(trace_path)
        report_layers(run, tracer, mark, len(traced.outputs), traced.rate(), traced.wall, loop.rate())
        batches.append((traced.outputs, traced.errors, len(rows)))
        run.attempted += len(traced.outputs)

    same = set(corpus.same_distribution)
    for batch, batch_errors, base in batches:
        for i, row in enumerate(batch):
            pair = i % len(indexes)
            if i in batch_errors:
                run.fail(base + i, batch_errors[i])
                continue
            for problem in row_problems(row):
                run.fail(base + i, f"pair {pair}: {problem}")
            if pair in same and (row["wmd_distance"], row["wmd_similarity"]) != (0.0, 1.0):
                run.fail(base + i, f"pair {pair}: identical distributions but WMD {row['wmd_distance']!r}")
        for i in range(min(REPLAY, len(batch))):
            if batch[i] is not None and score(i, embedder, []) != batch[i]:
                run.fail(base + i, f"pair {i}: scoring again gave different values")
    run.info.append(
        f"gate: {run.attempted} rows finite and in range, "
        f"{sum(1 for i in range(len(rows)) if i % len(indexes) in same)} identical-distribution pairs at distance 0"
    )
    run.info.append("digest " + digest(json.dumps(r, sort_keys=True) for r in rows[:DIGEST_OPS]))
    return run


# ------------------------------------------------------------ CLI round


def cli_round(corpus, workdir, command_span):
    """``nsplan plan --jobs 2`` over the dataset file, then ``nsplan eval``
    on its output, both through ``cli.main`` in this process."""
    plans_dir = os.path.join(workdir, "cli-plans")
    eval_dir = os.path.join(workdir, "cli-eval")
    plan_argv = [
        "plan", "--graph", corpus.files["graph"], "--graph-format", "jsonl",
        "--admissible", corpus.files["admissible"], "--dataset", corpus.files["dataset"],
        "--out", plans_dir, "--jobs", str(CLI_JOBS),
    ]
    eval_argv = ["eval", "--predictions", plans_dir, "--dataset", corpus.files["dataset"], "--out", eval_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        plan_rc = command_span("cli.plan_cmd", cli.main, (plan_argv,))
        eval_rc = command_span("cli.eval_cmd", cli.main, (eval_argv,))
    return plans_dir, eval_dir, plan_rc, eval_rc


def check_cli_round(run, corpus, round_, replan, base):
    """The CLI's plan files must equal in-process plans byte for byte, its
    manifest must match them apart from ``timing``, and its report must
    score every task once with values in range."""
    plans_dir, eval_dir, plan_rc, eval_rc = round_
    tasks = programs.load_task_dataset(corpus.files["dataset"])
    run.attempted += len(tasks)

    def fail_all(message):
        for i in range(len(tasks)):
            run.fail(base + i, f"cli: {message}")

    if plan_rc != 0 or eval_rc != 0:
        fail_all(f"exit codes plan={plan_rc} eval={eval_rc}")
        return
    entries, ids = [], []
    for i, sample in enumerate(tasks):
        tid = cli.task_id(i, sample.task)
        result = replan(sample.task)
        ids.append(tid)
        entries.append(
            {"id": tid, "task": sample.task, "status": "ok", "file": f"{tid}.json",
             "termination": result.termination, "steps": len(result.steps)}
        )
        want = json.dumps({"id": tid, **result.to_json()}, indent=2, sort_keys=True) + "\n"
        with open(os.path.join(plans_dir, f"{tid}.json"), encoding="utf-8") as fh:
            if fh.read() != want:
                run.fail(base + i, f"cli: plan file {tid}.json differs from the in-process plan")
    with open(os.path.join(plans_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("command") != "plan" or manifest.get("tasks") != entries:
        fail_all("manifest tasks differ from the in-process plans")
    if manifest.get("config", {}).get("out") != plans_dir:
        fail_all("manifest does not echo the output directory")
    with open(os.path.join(eval_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    rows = report["per_sample"]
    if report["count"] != len(tasks) or [r["id"] for r in rows] != sorted(ids):
        fail_all("report does not score every task once")
    for row in rows:
        for problem in row_problems(row):
            fail_all(f"{row['id']}: {problem}")
    run.info.append(f"gate: cli round of {len(tasks)} tasks equal byte for byte to in-process plans")


WORKLOADS = ("plan-translate", "plan-retrieve", "eval-pairs")


def run_workload(name, seed, seconds, tracing, workdir, trace_path):
    if name == "eval-pairs":
        return eval_workload(seed, seconds, tracing, workdir, trace_path)
    return plan_workload(name, seed, seconds, tracing, workdir, trace_path)
