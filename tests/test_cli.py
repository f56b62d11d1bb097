"""CLI harness: config resolution, subcommands, artifacts, exit codes."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from nsplan import _files, cli, embeddings, kg
from nsplan.embeddings import HashEmbedding
from nsplan.errors import ConfigError
from nsplan.generation import ScriptedGenerator


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def _plan_argv(out, extra=()):
    return [
        "plan",
        "--graph", _fixture("tv_graph.jsonl"),
        "--graph-format", "jsonl",
        "--dataset", _fixture("watch_tv.jsonl"),
        "--admissible", _fixture("admissible_household.json"),
        "--theta", "0.0",
        "--cos-keep-threshold", "-1.0",
        "--edge-threshold", "0.0",
        "--out", str(out),
        *extra,
    ]


def _read_tree(root):
    tree = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            tree[name] = fh.read()
    return tree


class TestConfigResolution:
    def test_defaults(self):
        config = cli.RunConfig()
        assert config.theta == 0.7
        assert config.follower_schedule == (1.0,)

    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"theta": 0.5, "max_steps": 7}))
        parser = cli.build_parser()
        args = parser.parse_args(["plan", "--config", str(path), "--theta", "0.9"])
        config = cli.load_config(args)
        assert config.theta == 0.9  # flag wins
        assert config.max_steps == 7  # file wins over default
        assert config.hops == 3  # default

    @pytest.mark.parametrize(
        "payload, keys",
        [
            ({"thata": 0.5}, "thata"),
            # the provider kinds and the dataset format of older manifests
            ({"generator": "follower", "embedding": "hash", "format": "robothow-jsonl"},
             "embedding, format, generator"),
        ],
        ids=["typo", "removed-options"],
    )
    def test_unknown_config_key_rejected(self, tmp_path, payload, keys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        args = cli.build_parser().parse_args(["plan", "--config", str(path)])
        with pytest.raises(ConfigError, match=f"unknown config keys: {keys}$"):
            cli.load_config(args)

    def test_manifest_is_valid_config_input(self, tmp_path):
        def replay(manifest, out):
            return ["plan", "--config", str(manifest), "--out", str(out)]

        out = tmp_path / "run"
        assert cli.main(_plan_argv(out)) == 0
        config = cli.load_config(cli.build_parser().parse_args(replay(out / "manifest.json", tmp_path / "again")))
        assert config.theta == 0.0
        assert config.dataset == _fixture("watch_tv.jsonl")

        # a table run replayed from its manifest chooses the table again
        table, again = tmp_path / "table", tmp_path / "table-again"
        assert cli.main(_plan_argv(table, ["--embedding-path", _fixture("table_embeddings.jsonl")])) == 0
        assert cli.main(replay(table / "manifest.json", again)) == 0
        first, second = _read_tree(table), _read_tree(again)
        for tree in (first, second):
            assert "table_misses" in json.loads(tree.pop("manifest.json"))["timing"]["embedding"]
        assert first == second

        # so does a scripted run its generator fixture, which scripts Watch TV alone
        scripted = tmp_path / "scripted"
        assert cli.main(_plan_argv(scripted, ["--generator-fixture", _fixture("scripted_responses.json")])) == 1
        config = cli.load_config(cli.build_parser().parse_args(replay(scripted / "manifest.json", again)))
        assert isinstance(cli.build_generator(config), ScriptedGenerator)

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"hops": "3"}, "hops"),
            ({"theta": None}, "theta"),
            ({"max_steps": True}, "max_steps"),
            ({"strict": 1}, "strict"),
            ({"follower_schedule": "1,0.5"}, "follower_schedule"),
            ({"follower_schedule": [1.0, "x"]}, "follower_schedule"),
            ({"graph": 7}, "graph"),
            # json.dumps writes these as the literals NaN, Infinity and -Infinity
            ({"edge_threshold": float("nan")}, "edge_threshold"),
            ({"edge_threshold": float("inf")}, "edge_threshold"),
            ({"cos_keep_threshold": float("nan")}, "cos_keep_threshold"),
            ({"cos_keep_threshold": float("-inf")}, "cos_keep_threshold"),
            ({"seed": -3}, "seed"),
        ],
    )
    def test_config_file_value_of_wrong_type_is_exit_2(self, tmp_path, capsys, payload, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["plan", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "run").exists()

    def test_config_file_that_is_not_an_object_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        assert cli.main(["plan", "--config", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, '{"theta": 0.5,'], ids=["missing", "not-json"])
    def test_config_file_missing_or_not_json_is_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        assert cli.main(["plan", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err
        assert not (tmp_path / "run").exists()

    def test_config_file_accepts_int_for_float_list_for_tuple_null_for_optional(self, tmp_path):
        path = tmp_path / "config.json"
        payload = {"theta": 1, "follower_schedule": [1, 0.5], "seed": None, "graph": None}
        path.write_text(json.dumps(payload))
        config = cli.load_config(cli.build_parser().parse_args(["plan", "--config", str(path)]))
        assert config.theta == 1
        assert config.follower_schedule == (1.0, 0.5)
        assert config.seed is None and config.graph is None

    def test_flag_types_follow_field_annotations(self):
        args = cli.build_parser().parse_args(
            ["plan", "--hops", "2", "--theta", "0.5", "--strict", "--model", "m"]
        )
        assert (args.hops, args.theta, args.strict, args.model) == (2, 0.5, True, "m")
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["plan", "--hops", "2.5"])

    def test_schedule_flag_parsing(self):
        args = cli.build_parser().parse_args(["plan", "--follower-schedule", "1,1,0.5"])
        config = cli.load_config(args)
        assert config.follower_schedule == (1.0, 1.0, 0.5)

    @pytest.mark.parametrize(
        "payload",
        [
            {"theta": 1.4},
            {"jobs": 0},
            {"trials": 0},
            {"edge_threshold": float("nan")},
            {"edge_threshold": float("inf")},
            {"cos_keep_threshold": float("nan")},
            {"cos_keep_threshold": float("inf")},
            {"cos_keep_threshold": float("-inf")},
        ],
    )
    def test_invalid_values_are_config_errors(self, payload):
        (field,) = payload
        with pytest.raises(ConfigError, match=field):
            cli.RunConfig(**payload)

    def test_require_names_flag(self):
        with pytest.raises(ConfigError, match=r"--generator-fixture"):
            cli.RunConfig().require("generator_fixture")


class TestBuilders:
    @pytest.mark.parametrize(
        "settings, kind",
        [
            ({}, "hash"),
            ({"embedding_path": _fixture("table_embeddings.jsonl")}, "table"),
            ({"embedding_endpoint": "http://svc/v1/embed"}, "remote"),
        ],
        ids=["none", "embedding_path", "embedding_endpoint"],
    )
    def test_embedder_is_chosen_by_its_input(self, settings, kind):
        provider = cli.build_embedder(cli.RunConfig(embedding_dim=8, **settings))
        assert provider.kind == kind and provider.dim == 8

    @pytest.mark.parametrize(
        "settings, kind",
        [
            ({}, "follower"),
            ({"generator_fixture": _fixture("scripted_responses.json")}, "scripted"),
            ({"endpoint": "http://svc/v1"}, "remote"),
        ],
        ids=["none", "generator_fixture", "endpoint"],
    )
    def test_generator_is_chosen_by_its_input(self, settings, kind):
        assert cli.build_generator(cli.RunConfig(**settings)).kind == kind

    def test_follower_takes_the_schedule(self):
        assert cli.build_generator(cli.RunConfig(follower_schedule=(0.9,))).schedule == (0.9,)

    def test_empty_provider_input_is_config_error(self):
        with pytest.raises(ConfigError, match="embedding_path"):
            cli.build_embedder(cli.RunConfig(embedding_path=""))
        with pytest.raises(ConfigError, match="endpoint"):
            cli.build_generator(cli.RunConfig(endpoint=""))

    def test_remote_generator_reads_api_key_env(self, monkeypatch):
        monkeypatch.setenv("NSPLAN_API_KEY", "sekrit")
        remote = cli.build_generator(cli.RunConfig(endpoint="http://svc/v1"))
        assert remote.kind == "remote" and remote.api_key == "sekrit"

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (["--generator-fixture", _fixture("scripted_responses.json"), "--endpoint", "http://svc/v1"],
             "generator_fixture and endpoint"),
            (["--embedding-path", _fixture("table_embeddings.jsonl"), "--embedding-endpoint", "http://svc/v1"],
             "embedding_path and embedding_endpoint"),
        ],
        ids=["generator", "embedding"],
    )
    def test_both_inputs_of_one_provider_is_exit_2_naming_both(self, tmp_path, capsys, flags, fields):
        out = tmp_path / "run"
        assert cli.main(_plan_argv(out, flags)) == 2
        assert f"config error: {fields}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--generator", "--embedding", "--format"])
    def test_removed_kind_and_format_flags_are_exit_2(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_:
            cli.main(_plan_argv(tmp_path / "run", [flag, "x"]))
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


class TestTaskIds:
    def test_slug_format(self):
        assert cli.task_id(0, "Watch TV") == "0000-watch-tv"
        assert cli.task_id(12, "Turn light off!") == "0012-turn-light-off"
        assert cli.task_id(3, "???") == "0003-task"


class TestPlanCommand:
    def test_writes_task_files_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(_plan_argv(out)) == 0
        names = sorted(os.listdir(out))
        assert names == ["0000-watch-tv.json", "0001-work.json", "manifest.json"]
        with open(out / "0000-watch-tv.json") as fh:
            result = json.load(fh)
        assert result["id"] == "0000-watch-tv"
        assert result["termination"] in ("MaxSteps", "BelowThreshold", "GeneratorExhausted")
        assert all(step["text"] for step in result["steps"])
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "plan"
        assert manifest["config"]["theta"] == 0.0
        assert {t["status"] for t in manifest["tasks"]} == {"ok"}
        assert set(manifest["versions"]) == {"nsplan", "python", "numpy"}

    @pytest.mark.parametrize("embedding", ["hash", "table"])
    def test_manifest_timing_records_the_embedding_memo(self, tmp_path, embedding):
        out = tmp_path / "run"
        extra = ["--embedding-path", _fixture("table_embeddings.jsonl")] if embedding == "table" else []
        assert cli.main(_plan_argv(out, extra)) == 0
        with open(out / "manifest.json") as fh:
            timing = json.load(fh)["timing"]
        # the counts of per-text embed calls, which batch embedding keeps; a
        # translation memo hit asks for no embedding, so the two memos' hits
        # sum to the 26 embedding hits of a run without the translation memo
        translation = {"hash": {"hits": 8, "misses": 10}, "table": {"hits": 7, "misses": 11}}[embedding]
        want = {"hits": 26 - translation["hits"], "misses": 324}
        want |= {"table_misses": 321} if embedding == "table" else {}
        assert timing["embedding"] == want
        assert timing["translation"] == translation

    def test_embedding_traffic_of_a_fixture_run_is_pinned(self, tmp_path, monkeypatch):
        """The texts the provider is asked to embed, in order, and the memo's
        hit and miss counts, which the manifest records: adaption embeds the
        distinct tails of each sample in order of first appearance."""
        asked, built = [], []

        class Recording(HashEmbedding):
            def embed(self, text):
                asked.append(text)
                return super().embed(text)

        def build(config):
            built.append(Recording(dim=config.embedding_dim, seed=config.seed or 0))
            return built[-1]

        monkeypatch.setattr(cli, "build_embedder", build)
        out = tmp_path / "run"
        assert cli.main(_plan_argv(out)) == 0
        with open(out / "manifest.json") as fh:
            counts = json.load(fh)["timing"]["embedding"]
        assert counts == embeddings.memo_counts(built[0]) == {"hits": 18, "misses": 324}
        assert len(asked) == 324
        assert hashlib.sha256("\n".join(asked).encode()).hexdigest()[:16] == "2fe3e072bb67fdef"

    def test_a_fixture_run_holds_one_row_per_miss(self, tmp_path, monkeypatch):
        """Each vector is held once: after a run at the default budget the
        provider's store holds one row per miss, adaption's tails included,
        and ``embed`` of a tail's text is a hit."""
        built = []

        def build(config):
            built.append(HashEmbedding(dim=config.embedding_dim, seed=config.seed or 0))
            return built[-1]

        monkeypatch.setattr(cli, "build_embedder", build)
        assert cli.main(_plan_argv(tmp_path / "run")) == 0
        provider, = built
        store = embeddings.vector_store(provider)
        assert len(store.index) == embeddings.memo_counts(provider)["misses"] == 324
        graph = kg.load_graph(_fixture("tv_graph.jsonl"), fmt="jsonl")
        tails = {kg.surface(graph.node_keys[node]) for node in graph.tail_ids}
        assert tails <= store.index.keys()
        before = embeddings.memo_counts(provider)
        embeddings.embed(provider, min(tails))
        assert embeddings.memo_counts(provider) == {"hits": before["hits"] + 1, "misses": 324}

    def test_manifest_counts_the_memo_clears_of_a_tiny_budget(self, tmp_path, monkeypatch):
        """A run within the budget clears nothing; a run over a tiny budget
        clears the vector store, the translation memo and the table of
        balls, and writes the same plans."""
        roomy, tiny = tmp_path / "roomy", tmp_path / "tiny"
        assert cli.main(_plan_argv(roomy)) == 0
        monkeypatch.setattr(embeddings, "MEMO_BUDGET_BYTES", 600)  # a few entries of each
        assert cli.main(_plan_argv(tiny)) == 0
        runs = _read_tree(roomy), _read_tree(tiny)
        clears = [json.loads(tree.pop("manifest.json"))["timing"]["memo_clears"] for tree in runs]
        assert clears[0] == {"embedding": 0, "translation": 0, "balls": 0}
        assert set(clears[1]) == {"embedding", "translation", "balls"}
        assert all(count > 0 for count in clears[1].values())
        assert runs[0] == runs[1]

    def test_rerun_is_byte_identical_modulo_timing(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(_plan_argv(out)) == 0
        first = _read_tree(out)
        assert cli.main(_plan_argv(out)) == 0
        second = _read_tree(out)
        assert set(first) == set(second)
        for name in first:
            if name == "manifest.json":
                a, b = json.loads(first[name]), json.loads(second[name])
                a.pop("timing"), b.pop("timing")
                assert a == b
            else:
                assert first[name] == second[name], name

    def test_plan_files_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Processes with their own string hash seeds write the same plans:
        no output order comes from iterating a set or a dict of strings."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        trees = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from nsplan.cli import main; sys.exit(main(sys.argv[1:]))",
                 *_plan_argv(out)],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            trees.append(_read_tree(out))
        first, second = trees
        assert set(first) == set(second)
        for name in first:
            if name == "manifest.json":
                a, b = json.loads(first[name]), json.loads(second[name])
                for manifest in (a, b):
                    manifest.pop("timing"), manifest["config"].pop("out")
                assert json.dumps(a) == json.dumps(b)  # key order included
            else:
                assert first[name] == second[name], name
        assert any(json.loads(first[name]).get("steps") for name in first if name != "manifest.json")

    def test_dataset_without_samples_is_exit_1_before_the_graph_is_read(self, tmp_path, monkeypatch, capsys):
        def ingest(*args, **kwargs):
            raise AssertionError("the graph was ingested for a dataset without samples")

        monkeypatch.setattr(cli.kg, "ingest", ingest)
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text('{"name": "Broken"}\n{"task": "X", "steps": ["not a step"]}\n')
        out = tmp_path / "run"
        argv = _plan_argv(out)
        argv[argv.index("--dataset") + 1] = str(dataset)
        assert cli.main(argv) == 1
        assert f"error: dataset {dataset} has no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_wikihow_dataset_plans_and_evaluates_without_a_format(self, tmp_path):
        out = tmp_path / "run"
        argv = _plan_argv(out)
        argv[argv.index("--dataset") + 1] = _fixture("counterfactual_tasks.jsonl")
        assert cli.main(argv) == 0
        tasks = json.loads((out / "manifest.json").read_text())["tasks"]
        assert [t["task"] for t in tasks] == ["Watch TV", "Work", "Turn light off", "Clean"]
        argv = ["eval", "--predictions", str(out), "--dataset", _fixture("counterfactual_tasks.jsonl"),
                "--out", str(tmp_path / "eval")]
        # the TV graph knows nothing of two tasks, whose empty plans cannot be scored
        assert cli.main(argv) == 1
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert [r["id"] for r in report["per_sample"]] == [t["id"] for t in tasks if t["steps"]] != []
        assert [r["id"] for r in report["failed"]] == [t["id"] for t in tasks if not t["steps"]]

    def test_missing_input_file_is_exit_2_and_no_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = _plan_argv(out)
        argv[argv.index("--dataset") + 1] = str(tmp_path / "nope.jsonl")
        assert cli.main(argv) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_invalid_theta_is_exit_2(self, tmp_path, capsys):
        assert cli.main(_plan_argv(tmp_path / "run", extra=["--theta", "2.0"])) == 2
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--follower-schedule", "1.5", "follower_schedule"),
            ("--follower-schedule", ",", "follower_schedule"),
            ("--embedding-dim", "0", "embedding_dim"),
            ("--edge-threshold", "nan", "edge_threshold"),
            ("--edge-threshold", "inf", "edge_threshold"),
            ("--cos-keep-threshold", "nan", "cos_keep_threshold"),
            ("--cos-keep-threshold", "inf", "cos_keep_threshold"),
        ],
    )
    def test_bad_provider_setting_is_exit_2_naming_it(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "run"
        assert cli.main(_plan_argv(out, extra=[flag, value])) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_table_row_is_exit_1_naming_file_and_line(self, tmp_path, capsys, literal):
        table = tmp_path / "table.jsonl"
        table.write_text('{"text": "a", "vector": [1.0, 0.0]}\n{"text": "b", "vector": [%s, 1.0]}\n' % literal)
        argv = _plan_argv(tmp_path / "run", ["--embedding-path", str(table)])
        assert cli.main(argv) == 1
        assert f"error: {table}, line 2" in capsys.readouterr().err

    def test_failed_task_recorded_and_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "responses.json"
        empty.write_text("{}")
        out = tmp_path / "run"
        argv = _plan_argv(
            out, extra=["--generator-fixture", str(empty)]
        )
        assert cli.main(argv) == 1
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        statuses = {t["status"] for t in manifest["tasks"]}
        assert statuses == {"failed"}
        assert "failed" in capsys.readouterr().err

    def test_scripted_miss_names_the_fixture_and_fingerprint(self, tmp_path):
        """A graph with no concept of the task leaves the prompt at its task line."""
        graph = tmp_path / "graph.jsonl"
        graph.write_text('{"head": "bake_bread", "relation": "HasSubevent", "tail": "knead dough", "weight": 1.0}\n')
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text('{"task": "Watch TV", "steps": ["[Walk] <SOFA> (1)"]}\n')
        fixture = tmp_path / "responses.json"
        fixture.write_text("{}")
        out = tmp_path / "run"
        argv = [
            "plan", "--graph", str(graph), "--graph-format", "jsonl", "--dataset", str(dataset),
            "--admissible", _fixture("admissible_household.json"), "--out", str(out),
            "--generator-fixture", str(fixture),
        ]
        assert cli.main(argv) == 1
        [entry] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert entry["error"] == (
            f"InputError: {fixture}: no scripted response for fingerprint d72129fe18273be5 (prompt: Task: Watch TV...)"
        )

    def test_an_api_key_no_header_can_carry_fails_once_and_is_not_written(
        self, tmp_path, capsys, monkeypatch, loopback, sleeps
    ):
        monkeypatch.setenv("NSPLAN_API_KEY", "sk-sec\nret")
        endpoint = loopback.serve(lambda payload: (200, {}))
        out = tmp_path / "run"
        assert cli.main(_plan_argv(out, ["--endpoint", endpoint])) == 1
        manifest = (out / "manifest.json").read_text()
        tasks = json.loads(manifest)["tasks"]
        reason = "the API key holds a character that is not printable ASCII"
        assert {t["error"] for t in tasks} == {f"TransportError: request cannot be sent: {reason} endpoint={endpoint}"}
        err = capsys.readouterr().err
        assert not [word for word in ("sk-sec", "Bearer") if word in manifest or word in err]
        assert (sleeps, loopback.headers) == ([], [])

    @pytest.mark.parametrize("failure", ["rename", "write"])
    def test_failed_write_keeps_the_previous_plan_file(self, tmp_path, monkeypatch, failure):
        out = tmp_path / "run"
        assert cli.main(_plan_argv(out)) == 0
        plan_file = out / "0000-watch-tv.json"
        before, listing = plan_file.read_bytes(), sorted(os.listdir(out))
        temps = []
        text = '{"id": "0000-watch-tv"}\n'

        def crash_before_rename(src, dst):
            temps.append(src)
            raise OSError("simulated crash")

        if failure == "rename":
            monkeypatch.setattr(os, "replace", crash_before_rename)
        else:
            text += "\ud800"  # not encodable: the write itself fails
        with pytest.raises((OSError, UnicodeEncodeError)):
            _files.write_text(str(plan_file), text)
        monkeypatch.undo()
        assert plan_file.read_bytes() == before
        assert sorted(os.listdir(out)) == listing
        assert len(temps) == (failure == "rename")
        assert all(os.path.dirname(t) == str(out) and not t.endswith(".json") for t in temps)

    def test_scripted_fixture_that_is_not_an_object_is_named(self, tmp_path, capsys):
        fixture = tmp_path / "responses.json"
        fixture.write_text("[1]")
        argv = _plan_argv(tmp_path / "run", ["--generator-fixture", str(fixture)])
        assert cli.main(argv) == 1
        assert f"error: {fixture}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", ['{"text": 5, "confidence": 0.5}', '{"text": "walk"}', '{"text": "walk", "confidence": true}']
    )
    def test_scripted_fixture_with_a_bad_entry_is_exit_1_naming_the_file(self, tmp_path, capsys, entry):
        fixture = tmp_path / "responses.json"
        fixture.write_text('{"0123456789abcdef": %s}' % entry)
        out = tmp_path / "run"
        argv = _plan_argv(out, ["--generator-fixture", str(fixture)])
        assert cli.main(argv) == 1
        assert f"error: {fixture}: entry 0123456789abcdef must be" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        out, serial = tmp_path / "run", tmp_path / "serial"
        assert cli.main(_plan_argv(out)) == 0
        os.rename(out, serial)  # both manifests then echo the same --out
        assert cli.main(_plan_argv(out, extra=["--jobs", "4"])) == 0
        a, b = _read_tree(serial), _read_tree(out)
        assert sorted(a) == sorted(b)
        for name in a:
            if name == "manifest.json":
                am, bm = json.loads(a[name]), json.loads(b[name])
                assert (am["config"].pop("jobs"), bm["config"].pop("jobs")) == (1, 4)
                del am["timing"], bm["timing"]
                assert am == bm
            else:
                assert a[name] == b[name]

    def test_transport_failure_records_the_partial_trace(self, tmp_path, loopback, sleeps):
        """A remote service that fails one task's third prompt fails that task
        alone, at --jobs 1 and 4: its manifest entry holds the give-up message
        and the two iterations that finished, and every other plan file is
        byte-equal to the follower generator's."""
        clean = tmp_path / "clean"
        assert cli.main(_plan_argv(clean)) == 0
        endpoint = loopback.serve(_follow_the_prompt)
        remote = ["--endpoint", endpoint]
        out, serial = tmp_path / "run", tmp_path / "serial"
        assert cli.main(_plan_argv(out, remote)) == 1
        os.rename(out, serial)  # both manifests then echo the same --out
        assert cli.main(_plan_argv(out, [*remote, "--jobs", "4"])) == 1

        expected = _read_tree(clean)
        del expected["manifest.json"]
        finished = json.loads(expected.pop(f"{_FAILING_TASK_ID}.json"))["trace"][:2]
        assert [step["iteration"] for step in finished] == [1, 2]
        manifests = []
        for run in (serial, out):
            tree = _read_tree(run)
            manifest = json.loads(tree.pop("manifest.json"))
            assert tree == expected  # the other plan files are unchanged; the failed task writes none
            entry = next(e for e in manifest["tasks"] if e["id"] == _FAILING_TASK_ID)
            assert entry["status"] == "failed"
            assert entry["error"] == (
                f"TransportError: gave up after 4 attempts: service returned 503 endpoint={endpoint} status=503"
            )
            assert entry["trace"] == finished
            assert {e["status"] for e in manifest["tasks"] if e is not entry} == {"ok"}
            del manifest["timing"]
            manifests.append(manifest)
        a, b = manifests
        assert (a["config"].pop("jobs"), b["config"].pop("jobs")) == (1, 4)
        assert a == b


_FAILING_TASK_ID = "0000-watch-tv"


def _follow_the_prompt(payload):
    """Answers a completion as the follower generator would: the first
    "Step:" line of the prompt not yet among its "Step i:" lines, with log
    probability 0. Watch TV's third prompt (two steps in its history) gets
    a 503, which depends on the prompt alone, so under any --jobs."""
    lines = payload["prompt"].split("\n")
    knowledge = [line[len("Step: "):-1] for line in lines if line.startswith("Step: ")]
    history = [m.group(1) for line in lines if (m := re.fullmatch(r"Step \d+: (.*)\.", line))]
    if lines[0] == "Task: Watch TV" and len(history) == 2:
        return 503, {}
    text = next((line for line in knowledge if line not in history), "")
    return 200, {"choices": [{"text": text, "logprobs": {"token_logprobs": [0.0]}}]}


class TestEvalCommand:
    def _write_predictions(self, pred_dir, rows):
        os.makedirs(pred_dir, exist_ok=True)
        for tid, steps in rows.items():
            with open(os.path.join(pred_dir, f"{tid}.json"), "w") as fh:
                json.dump(
                    {
                        "id": tid,
                        "task": tid,
                        "steps": [{"text": s, "confidence": 1.0} for s in steps],
                        "termination": "MaxSteps",
                        "trace": [],
                    },
                    fh,
                )

    def test_identity_predictions_score_perfectly(self, tmp_path, capsys):
        # Predictions that equal the natural rendering of the references.
        preds = tmp_path / "preds"
        self._write_predictions(
            preds,
            {
                "0000-watch-tv": [
                    "walk to television",
                    "switch on television",
                    "walk to sofa",
                    "sit on sofa",
                    "watch television",
                ],
                "0001-work": [
                    "walk to home office",
                    "sit on chair",
                    "switch on computer",
                    "look at computer",
                ],
            },
        )
        out = tmp_path / "evalout"
        argv = [
            "eval",
            "--predictions", str(preds),
            "--dataset", _fixture("watch_tv.jsonl"),
            "--out", str(out),
        ]
        assert cli.main(argv) == 0
        with open(out / "report.json") as fh:
            report = json.load(fh)
        for row in report["per_sample"]:
            assert row["s_bleu"] == pytest.approx(1.0)
            assert row["rouge1_f1"] == pytest.approx(1.0)
            assert row["wmd_distance"] == 0.0
            assert row["embed_match_f1"] == pytest.approx(1.0, abs=1e-9)
        printed = capsys.readouterr().out
        assert "mean" in printed and "s_bleu" in printed
        assert (out / "report.txt").exists()

    def test_rerun_into_the_predictions_directory(self, tmp_path):
        preds = tmp_path / "preds"
        self._write_predictions(preds, {"0000-watch-tv": ["walk to sofa"], "0001-work": ["sit on chair"]})
        argv = [
            "eval",
            "--predictions", str(preds),
            "--dataset", _fixture("watch_tv.jsonl"),
            "--out", str(preds),
        ]
        assert cli.main(argv) == 0
        first = (preds / "report.json").read_bytes()
        assert cli.main(argv) == 0
        assert (preds / "report.json").read_bytes() == first

    def test_empty_plan_is_listed_and_the_rest_scored(self, tmp_path, capsys):
        preds = tmp_path / "preds"
        self._write_predictions(
            preds,
            {
                "0000-watch-tv": [
                    "walk to television",
                    "switch on television",
                    "walk to sofa",
                    "sit on sofa",
                    "watch television",
                ],
                "0001-work": [],
            },
        )
        out = tmp_path / "evalout"
        argv = [
            "eval",
            "--predictions", str(preds),
            "--dataset", _fixture("watch_tv.jsonl"),
            "--out", str(out),
        ]
        assert cli.main(argv) == 1
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["count"] == 1
        assert [row["id"] for row in report["per_sample"]] == ["0000-watch-tv"]
        assert report["per_sample"][0]["wmd_distance"] == 0.0
        assert report["means"]["s_bleu"] == report["per_sample"][0]["s_bleu"]
        assert [row["id"] for row in report["failed"]] == ["0001-work"]
        assert "nonempty" in report["failed"][0]["error"]
        assert "0001-work" in (out / "report.txt").read_text()
        assert "failed 0001-work" in capsys.readouterr().err

    def test_unrenderable_reference_is_listed_and_the_rest_scored(self, tmp_path, capsys):
        dataset = tmp_path / "tasks.jsonl"
        dataset.write_text(
            '{"task": "Watch TV", "steps": ["[Walk] <TELEVISION> (1)", "[Dance] <TV> (1)"]}\n'
            '{"task": "Work", "steps": ["[Walk] <HOME_OFFICE> (1)", "[Sit] <CHAIR> (1)"]}\n'
        )
        preds = tmp_path / "preds"
        self._write_predictions(preds, {"0000-watch-tv": ["walk to television"], "0001-work": ["walk to home office"]})
        out = tmp_path / "evalout"
        argv = ["eval", "--predictions", str(preds), "--dataset", str(dataset), "--out", str(out)]
        assert cli.main(argv) == 1
        report = json.loads((out / "report.json").read_text())
        assert [row["id"] for row in report["per_sample"]] == ["0001-work"]
        [failed] = report["failed"]
        assert failed["id"] == "0000-watch-tv"
        assert failed["error"].startswith("ValueError: no natural template for action 'Dance'; known actions: ")
        err = capsys.readouterr().err
        assert err.startswith(f"  failed 0000-watch-tv: {failed['error']}")
        assert "error:" not in err

    def test_id_mismatch_lists_both_directions(self, tmp_path, capsys):
        preds = tmp_path / "preds"
        self._write_predictions(preds, {"0000-watch-tv": ["x"], "0009-ghost": ["y"]})
        argv = [
            "eval",
            "--predictions", str(preds),
            "--dataset", _fixture("watch_tv.jsonl"),
            "--out", str(tmp_path / "out"),
        ]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "0009-ghost" in err
        assert "0001-work" in err

    def test_duplicate_task_id_names_both_files(self, tmp_path, capsys):
        preds = tmp_path / "preds"
        self._write_predictions(preds, {"0000-watch-tv": ["walk to sofa"], "0001-work": ["sit on chair"]})
        copy = preds / "z-copy.json"
        copy.write_bytes((preds / "0000-watch-tv.json").read_bytes())
        argv = [
            "eval",
            "--predictions", str(preds),
            "--dataset", _fixture("watch_tv.jsonl"),
            "--out", str(tmp_path / "out"),
        ]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert str(preds / "0000-watch-tv.json") in err and str(copy) in err
        assert not (tmp_path / "out").exists()

    def test_empty_predictions_dir_fails(self, tmp_path, capsys):
        preds = tmp_path / "preds"
        os.makedirs(preds)
        argv = [
            "eval",
            "--predictions", str(preds),
            "--dataset", _fixture("watch_tv.jsonl"),
            "--out", str(tmp_path / "out"),
        ]
        assert cli.main(argv) == 1
        assert "no prediction files" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            "[1, 2]",
            "{not json",
            '{"steps": [{"text": "x"}]}',
            '{"id": 7, "steps": [{"text": "x"}]}',
            '{"id": "0000-watch-tv", "steps": "walk"}',
            '{"id": "0000-watch-tv", "steps": [{"confidence": 1.0}]}',
            '{"id": "0000-watch-tv", "steps": ["walk to sofa"]}',
        ],
    )
    def test_bad_prediction_file_is_named(self, tmp_path, capsys, content):
        preds = tmp_path / "preds"
        self._write_predictions(preds, {"0001-work": ["sit on chair"]})
        bad = preds / "0000-watch-tv.json"
        bad.write_text(content)
        argv = [
            "eval",
            "--predictions", str(preds),
            "--dataset", _fixture("watch_tv.jsonl"),
            "--out", str(tmp_path / "out"),
        ]
        assert cli.main(argv) == 1
        assert f"error: prediction file {bad}" in capsys.readouterr().err


class TestIngestCommand:
    def test_writes_graph_jsonl_and_stats(self, tmp_path, capsys):
        out = tmp_path / "ingested"
        argv = ["ingest", "--graph", _fixture("shower_graph.tsv"), "--out", str(out)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert "kept 28 triplets" in printed
        assert "duplicates=1" in printed
        with open(out / "graph.jsonl") as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == 28
        assert {"head", "relation", "tail", "weight"} == set(rows[0])

    def test_ingested_output_reloads(self, tmp_path):
        out = tmp_path / "ingested"
        assert cli.main(["ingest", "--graph", _fixture("shower_graph.tsv"), "--out", str(out)]) == 0
        argv = ["ingest", "--graph", str(out / "graph.jsonl"), "--graph-format", "jsonl",
                "--out", str(tmp_path / "reingested")]
        assert cli.main(argv) == 0


class TestCounterfactualCommand:
    def test_writes_three_datasets(self, tmp_path):
        out = tmp_path / "cf"
        argv = [
            "counterfactual",
            "--dataset", _fixture("counterfactual_tasks.jsonl"),
            "--admissible", _fixture("admissible_household.json"),
            "--seed", "7",
            "--out", str(out),
        ]
        assert cli.main(argv) == 0
        names = sorted(os.listdir(out))
        assert names == [
            "counterfactual_final.jsonl",
            "counterfactual_initial.jsonl",
            "counterfactual_intermediate.jsonl",
        ]
        def rows(name):
            return [json.loads(line) for line in (out / name).read_text().splitlines()]

        initial = rows("counterfactual_initial.jsonl")
        assert len(initial) == 4
        assert all(s["kind"] == "InitialConfiguration" for s in initial)
        assert all(" in " in s["modified"]["task"] for s in initial)
        final = rows("counterfactual_final.jsonl")
        assert all(" and " in s["modified"]["task"] for s in final)

    def test_seeded_rerun_identical(self, tmp_path):
        def run(out):
            argv = [
                "counterfactual",
                "--dataset", _fixture("counterfactual_tasks.jsonl"),
                    "--admissible", _fixture("admissible_household.json"),
                "--seed", "11",
                "--out", str(out),
            ]
            assert cli.main(argv) == 0
            return _read_tree(out)

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_seed_required(self, tmp_path, capsys):
        argv = [
            "counterfactual",
            "--dataset", _fixture("counterfactual_tasks.jsonl"),
            "--admissible", _fixture("admissible_household.json"),
            "--out", str(tmp_path / "cf"),
        ]
        assert cli.main(argv) == 2
        assert "seed" in capsys.readouterr().err


class TestFrontdoorCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "fd"
        argv = ["frontdoor-check", "--seed", "0", "--trials", "25", "--out", str(out)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert "front-door identity holds" in printed
        with open(out / "frontdoor_report.json") as fh:
            report = json.load(fh)
        assert report["ok"] is True
        assert report["trials"] == 25
        assert report["worst_gaps"]["frontdoor"] < 1e-9
        assert report["confounded_demo"]["conditional_vs_interventional"] >= 0.1

    def test_negative_seed_is_exit_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "fd"
        assert cli.main(["frontdoor-check", "--seed", "-3", "--trials", "2", "--out", str(out)]) == 2
        assert "config error: seed" in capsys.readouterr().err
        assert not out.exists()


class TestInspectCommand:
    def test_prints_pipeline_stages(self, tmp_path, capsys):
        argv = [
            "inspect",
            "--task", "Watch TV",
            "--graph", _fixture("tv_graph.jsonl"),
            "--graph-format", "jsonl",
            "--admissible", _fixture("admissible_household.json"),
            "--cos-keep-threshold", "-1.0",
            "--edge-threshold", "0.0",
        ]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert "task: Watch TV" in printed
        assert "* watch_tv (VerbPhrase)" in printed
        assert "knowledge lines" in printed
        assert "grounded lines" in printed
        assert "| Task: Watch TV" in printed

    @pytest.mark.parametrize(
        "rows, line",
        [(['{"text": "a", "vector": []}'], 1), (['{"text": "a", "vector": [1.0]}', '{"text": "b", "vector": [1.0, 0.0]}'], 2)],
        ids=["empty", "lengths-differ"],
    )
    def test_bad_table_dimension_is_exit_1_naming_file_and_line(self, tmp_path, capsys, rows, line):
        table = tmp_path / "table.jsonl"
        table.write_text("".join(row + "\n" for row in rows))
        argv = [
            "inspect", "--task", "Watch TV", "--graph", _fixture("tv_graph.jsonl"), "--graph-format", "jsonl",
            "--admissible", _fixture("admissible_household.json"),
            "--embedding-path", str(table),
        ]
        assert cli.main(argv) == 1
        assert f"error: {table}, line {line}: vector of " in capsys.readouterr().err

    def test_table_entry_that_is_not_a_number_is_exit_1_naming_file_and_line(self, tmp_path, capsys):
        table = tmp_path / "table.jsonl"
        table.write_text('{"text": "a", "vector": ["3", true]}\n')
        argv = [
            "inspect", "--task", "Watch TV", "--graph", _fixture("tv_graph.jsonl"), "--graph-format", "jsonl",
            "--admissible", _fixture("admissible_household.json"),
            "--embedding-path", str(table),
        ]
        assert cli.main(argv) == 1
        assert f"error: {table}, line 1: vector must be a list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["inspect", "--task", "Watch TV", "--graph", "MISSING",
          "--admissible", _fixture("admissible_household.json")], "graph"),
        (["inspect", "--task", "Watch TV", "--graph", _fixture("tv_graph.jsonl"),
          "--graph-format", "jsonl", "--admissible", "MISSING"], "admissible"),
        (["counterfactual", "--dataset", "MISSING", "--seed", "1",
          "--admissible", _fixture("admissible_household.json")], "dataset"),
        (["eval", "--dataset", "MISSING", "--predictions", "PREDICTIONS"], "dataset"),
        (["plan", "--graph", _fixture("tv_graph.jsonl"), "--graph-format", "jsonl",
          "--dataset", _fixture("watch_tv.jsonl"),
          "--admissible", _fixture("admissible_household.json"),
          "--generator-fixture", "MISSING"], "generator_fixture"),
    ],
    ids=["inspect-graph", "inspect-admissible", "counterfactual-dataset", "eval-dataset",
         "plan-generator-fixture"],
)
def test_missing_input_file_is_exit_2_for_every_command(tmp_path, capsys, argv, field):
    missing = str(tmp_path / "nope.jsonl")
    argv = [missing if a == "MISSING" else str(tmp_path) if a == "PREDICTIONS" else a for a in argv]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: file not found: {missing}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--graph", _fixture("tv_graph.jsonl"), "--graph-format", "jsonl",
         "--dataset", _fixture("watch_tv.jsonl")],
        ["inspect", "--task", "Watch TV", "--graph", _fixture("tv_graph.jsonl"),
         "--graph-format", "jsonl"],
        ["counterfactual", "--dataset", _fixture("watch_tv.jsonl"), "--seed", "1"],
    ],
    ids=["plan", "inspect", "counterfactual"],
)
@pytest.mark.parametrize(
    "document",
    [
        '{"steps": "abc"}',
        '{"steps": [1, 2]}',
        '["walk to sofa"]',
        '{"actions": ["walk"], "objects": ["sofa"], "templates": {"walk": "{foo} {object}"}}',
        '{"actions": ["walk"], "objects": ["sofa"], "templates": {"walk": "{action"}}',
    ],
)
def test_bad_admissible_document_is_exit_2(tmp_path, capsys, argv, document):
    admissible = tmp_path / "admissible.json"
    admissible.write_text(document)
    argv = [*argv, "--admissible", str(admissible), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"config error: admissible: {admissible} must hold" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--graph", _fixture("tv_graph.jsonl"), "--graph-format", "jsonl",
         "--dataset", _fixture("watch_tv.jsonl")],
        ["inspect", "--task", "Watch TV", "--graph", _fixture("tv_graph.jsonl"),
         "--graph-format", "jsonl"],
    ],
    ids=["plan", "inspect"],
)
def test_bad_admissible_is_reported_before_the_graph_is_read(tmp_path, monkeypatch, capsys, argv):
    def ingest(*args, **kwargs):
        raise AssertionError("the graph was ingested before the admissible set was checked")

    monkeypatch.setattr(cli.kg, "ingest", ingest)
    admissible = tmp_path / "admissible.json"
    admissible.write_text('{"steps": "abc"}')
    assert cli.main([*argv, "--admissible", str(admissible), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: admissible: {admissible} must hold" in capsys.readouterr().err


def test_unmapped_relation_is_exit_1(monkeypatch, capsys):
    """Ingest keeps only household relations, so the triplet reaches the
    verbalizer through a stand-in for the knowledge step."""
    from nsplan.kg import AdaptedTriplet
    from nsplan.verbalize import build_knowledge_prompt

    def unmapped(*args, **kwargs):
        return build_knowledge_prompt((AdaptedTriplet("tv", "RelatedTo", "sofa", 1.0, 1.0),))

    monkeypatch.setattr(cli.planner, "knowledge_for_task", unmapped)
    argv = [
        "inspect", "--task", "Watch TV", "--graph", _fixture("tv_graph.jsonl"),
        "--graph-format", "jsonl", "--admissible", _fixture("admissible_household.json"),
    ]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: no symbolic rule for relation 'RelatedTo'\n"


class TestEntryPoint:
    def test_console_script_help(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from nsplan.cli import main; sys.exit(main(['frontdoor-check', '--help']))"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "--seed" in proc.stdout
        assert "--trials" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2


def _readme_commands():
    """The command examples of README's "Command line" section, as argv lists."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert all(argv[0] == "nsplan" for argv in commands)
    assert sorted(argv[1] for argv in commands) == sorted(cli.COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        for flag, value in zip(argv, argv[1:]):  # an empty placeholder for every input file
            if flag.startswith("--") and flag[2:].replace("-", "_") in cli.INPUT_FILES:
                open(value, "w").close()
        cli.main(argv[1:])
        assert "required for this command" not in capsys.readouterr().err, argv
