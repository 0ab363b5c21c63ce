import csv
import json

import pytest

from respqa.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from respqa.llm import BackendRouter

from helpers import (
    OVERPLANNING_QUESTION,
    edit_postings_array,
    film_corpus,
    overplanning_rules,
    point_past_the_documents,
    swap_second_and_third,
)


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with path.open("w") as handle:
        for doc in film_corpus():
            handle.write(
                json.dumps({"id": doc.doc_id, "title": doc.title, "contents": doc.text}) + "\n"
            )
    return path


@pytest.fixture
def index_dir(tmp_path, corpus_path):
    out = tmp_path / "index"
    assert main(["index", str(corpus_path), "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture
def script_path(tmp_path):
    path = tmp_path / "script.jsonl"
    with path.open("w") as handle:
        for rule in overplanning_rules():
            handle.write(json.dumps({"match": rule.match, "response": rule.response}) + "\n")
    return path


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "dataset.jsonl"
    rows = [
        {"id": "e1", "question": OVERPLANNING_QUESTION, "golden_answers": ["Charlie Murphy"]},
        {"id": "e2", "question": "Who starred in Twisted Fortune?", "golden_answers": ["Charlie Murphy"]},
        {"id": "e3", "question": "Which comedian directed the film?", "golden_answers": ["Victor Varnado"]},
    ]
    with path.open("w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


class TestIndexCommand:
    def test_success_prints_stats(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "idx"
        assert main(["index", str(corpus_path), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "indexed 5 documents" in printed
        assert (out / "manifest.json").exists()

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["index", str(missing), "--out", str(tmp_path / "idx")]) == EXIT_IO
        assert "nope.jsonl" in capsys.readouterr().err

    def test_duplicate_id_names_id(self, tmp_path, capsys):
        path = tmp_path / "dup.jsonl"
        row = {"id": "dup-doc", "title": "t", "contents": "text here"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        assert main(["index", str(path), "--out", str(tmp_path / "idx")]) == EXIT_IO
        assert "dup-doc" in capsys.readouterr().err

    def test_lone_surrogate_is_io_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        row = {"id": "d1", "title": "t", "contents": "half \ud800 pair"}
        path.write_text(json.dumps(row) + "\n")
        assert main(["index", str(path), "--out", str(tmp_path / "idx")]) == EXIT_IO
        assert f"{path}:1: 'contents' holds a lone surrogate" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()


class TestAskCommand:
    def test_prints_answer(self, index_dir, script_path, capsys):
        code = main(
            [
                "ask",
                OVERPLANNING_QUESTION,
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "Charlie Murphy"

    def test_trace_file_has_round_zero(self, index_dir, script_path, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        code = main(
            [
                "ask",
                OVERPLANNING_QUESTION,
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(trace_path.read_text())
        assert data["iterations"][0]["round"] == 0
        assert data["stop_reason"] == "judged_sufficient"

    def test_standard_pipeline_single_iteration(self, index_dir, script_path, tmp_path):
        trace_path = tmp_path / "out.json"
        code = main(
            [
                "ask",
                OVERPLANNING_QUESTION,
                "--pipeline",
                "standard",
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(trace_path.read_text())
        assert len(data["iterations"]) == 1
        assert data["memory"] is None

    def test_no_backend_is_config_error(self, index_dir, capsys):
        code = main(["ask", "q?", "--index-dir", str(index_dir)])
        assert code == EXIT_CONFIG
        assert "backend" in capsys.readouterr().err

    def test_missing_index_is_config_error(self, script_path, tmp_path, capsys):
        code = main(
            [
                "ask",
                "q?",
                "--index-dir",
                str(tmp_path / "absent"),
                "--script",
                str(script_path),
            ]
        )
        assert code == EXIT_CONFIG


class TestFlagErrors:
    """Invalid flag values exit with the configuration code, not a traceback."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep", "--k", "0,2", "--out", "sweep.csv"], "--k"),
            (["eval", "--limit", "-1", "--out-dir", "."], "--limit"),
            (["sweep", "--limit", "-1", "--out", "sweep.csv"], "--limit"),
            (["eval", "--parallelism", "0", "--out-dir", "."], "parallelism"),
        ],
    )
    def test_exit_config(
        self, argv, named, index_dir, script_path, dataset_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        command, flags = argv[0], argv[1:]
        runtime = ["--index-dir", str(index_dir), "--script", str(script_path)]
        assert main([command, str(dataset_path), *flags, *runtime]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not list(tmp_path.glob("eval_*")) and not (tmp_path / "sweep.csv").exists()

    def test_blank_question(self, index_dir, script_path, capsys):
        argv = ["ask", "   ", "--index-dir", str(index_dir), "--script", str(script_path)]
        assert main(argv) == EXIT_CONFIG
        assert "configuration error: question must be non-empty" in capsys.readouterr().err

    def test_non_http_endpoint_flag(self, index_dir, capsys):
        argv = ["ask", "q?", "--index-dir", str(index_dir), "--llm-endpoint", "localhost:9/v1"]
        assert main(argv) == EXIT_CONFIG
        assert "backend 'default'" in capsys.readouterr().err


class TestConfigFile:
    def write_config(self, tmp_path, index_dir, script_path, roles=None, pipeline=None):
        roles_block = roles if roles is not None else {
            "reasoner": "mock",
            "summarizer": "mock",
            "generator": "mock",
        }
        config = {
            "retriever": {"kind": "bm25", "index_dir": str(index_dir)},
            "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            "roles": roles_block,
        }
        if pipeline is not None:
            config["pipeline"] = pipeline
        path = tmp_path / "config.yaml"
        import yaml

        path.write_text(yaml.safe_dump(config))
        return path

    def test_ask_via_config(self, tmp_path, index_dir, script_path, capsys):
        config_path = self.write_config(tmp_path, index_dir, script_path)
        assert main(["ask", OVERPLANNING_QUESTION, "--config", str(config_path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "Charlie Murphy"

    def test_missing_summarizer_binding(self, tmp_path, index_dir, script_path, capsys):
        config_path = self.write_config(
            tmp_path, index_dir, script_path, roles={"reasoner": "mock", "generator": "mock"}
        )
        assert main(["ask", "q?", "--config", str(config_path)]) == EXIT_CONFIG
        assert "summarizer" in capsys.readouterr().err

    def test_negative_temperature(self, tmp_path, index_dir, script_path, capsys):
        config_path = self.write_config(
            tmp_path, index_dir, script_path, pipeline={"generator_temperature": -1}
        )
        assert main(["ask", OVERPLANNING_QUESTION, "--config", str(config_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "generator_temperature" in captured.err

    def test_unknown_key(self, tmp_path, index_dir, script_path, capsys):
        config_path = self.write_config(
            tmp_path, index_dir, script_path, pipeline={"log_prompts": True, "max_iteration": 1}
        )
        assert main(["ask", OVERPLANNING_QUESTION, "--config", str(config_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config key(s): pipeline.max_iteration" in captured.err

    def test_log_prompts_from_the_file(self, tmp_path, index_dir, script_path):
        config_path = self.write_config(
            tmp_path, index_dir, script_path, pipeline={"log_prompts": True}
        )
        trace_path = tmp_path / "trace.json"
        argv = ["ask", OVERPLANNING_QUESTION, "--config", str(config_path)]
        assert main([*argv, "--trace", str(trace_path)]) == EXIT_OK
        iterations = json.loads(trace_path.read_text())["iterations"]
        assert iterations and all(record["prompts"] for record in iterations)

    def test_missing_config_file(self, capsys):
        assert main(["ask", "q?", "--config", "/does/not/exist.yaml"]) == EXIT_CONFIG

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("pipeline: [unclosed\n")
        assert main(["ask", "q?", "--config", str(path)]) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    def test_template_override_not_utf8(self, tmp_path, index_dir, script_path, capsys):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "judge.txt").write_bytes(b"Judge \xff {Overarching question}\n")
        argv = ["ask", "q?", "--index-dir", str(index_dir), "--script", str(script_path)]
        assert main([*argv, "--templates-dir", str(templates)]) == EXIT_CONFIG
        assert str(templates / "judge.txt") in capsys.readouterr().err

    def test_template_override_with_an_unknown_slot(
        self, tmp_path, index_dir, script_path, dataset_path, capsys, monkeypatch
    ):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "judge.txt").write_text("Enough? {Overarching questio}\n")
        calls = []
        monkeypatch.setattr(BackendRouter, "complete", lambda self, request: calls.append(request))
        out_dir = tmp_path / "reports"
        argv = ["--index-dir", str(index_dir), "--script", str(script_path)]
        argv += ["--templates-dir", str(templates), "--out-dir", str(out_dir)]
        assert main(["eval", str(dataset_path), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(templates / "judge.txt") in err and "{Overarching questio}" in err
        assert not out_dir.exists()
        assert calls == []


class TestUnreadableInput:
    """Each JSONL input fails with its documented exit code, naming the file and line."""

    FIRST_ROWS = {
        "corpus": {"id": "d1", "title": "t", "contents": "text"},
        "dataset": {"id": "e1", "question": "q?", "golden_answers": ["a"]},
        "script": {"match": "x", "response": "y"},
        "vectors": {"id": "d1", "vector": [1.0]},
    }
    CASES = [("corpus", EXIT_IO), ("dataset", EXIT_IO), ("script", EXIT_CONFIG), ("vectors", EXIT_IO)]

    def run(self, kind, path, tmp_path, index_dir, script_path):
        runtime = ["--index-dir", str(index_dir), "--script", str(script_path)]
        if kind == "corpus":
            return main(["index", str(path), "--out", str(tmp_path / "idx")])
        if kind == "dataset":
            return main(["eval", str(path), *runtime, "--out-dir", str(tmp_path / "reports")])
        if kind == "script":
            return main(["ask", "q?", "--index-dir", str(index_dir), "--script", str(path)])
        # The embedding client is built but never called: load_vectors fails first.
        retriever = {
            "kind": "embedding",
            "index_dir": str(index_dir),
            "endpoint": "http://localhost:9/v1",
            "vectors": str(path),
        }
        config = tmp_path / "config.yaml"
        config.write_text(json.dumps({"retriever": retriever}))
        return main(["ask", "q?", "--config", str(config), "--script", str(script_path)])

    @pytest.mark.parametrize("kind, code", CASES)
    def test_invalid_utf8_line(self, kind, code, tmp_path, index_dir, script_path, capsys):
        path = tmp_path / f"{kind}.jsonl"
        path.write_bytes(json.dumps(self.FIRST_ROWS[kind]).encode() + b'\n{"id": "\xff"}\n')
        assert self.run(kind, path, tmp_path, index_dir, script_path) == code
        assert f"{path}:2: not UTF-8 JSON ('utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code", CASES)
    def test_deeply_nested_line(self, kind, code, tmp_path, index_dir, script_path, capsys):
        path = tmp_path / f"{kind}.jsonl"
        deep = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(
            json.dumps(self.FIRST_ROWS[kind]).encode() + b'\n{"id": "a", "contents": ' + deep + b"}\n"
        )
        assert self.run(kind, path, tmp_path, index_dir, script_path) == code
        assert f"{path}:2: JSON nested too deeply to parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vector, fragment",
        [
            ("123", "'vector' must be a JSON array"),
            ([1.0, float("inf")], "vector has a non-finite component"),
            (["1.5", True], "vector component '1.5' is not a number"),
            ([1.0, 10**400], "vector has a component out of range"),
        ],
    )
    def test_bad_vector_is_io_error(
        self, vector, fragment, tmp_path, index_dir, script_path, capsys
    ):
        path = tmp_path / "vectors.jsonl"
        path.write_text(json.dumps({"id": "d1", "vector": vector}) + "\n")
        assert self.run("vectors", path, tmp_path, index_dir, script_path) == EXIT_IO
        assert f"{path}:1: {fragment}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code", CASES)
    def test_directory_as_path(self, kind, code, tmp_path, index_dir, script_path, capsys):
        path = tmp_path / f"{kind}-dir"
        path.mkdir()
        assert self.run(kind, path, tmp_path, index_dir, script_path) == code
        assert str(path) in capsys.readouterr().err


class TestEvalCommand:
    def test_summary_line_and_files(self, index_dir, script_path, dataset_path, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(
            [
                "eval",
                str(dataset_path),
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "mean_f1=" in printed and "n=3" in printed
        summary = json.loads((out_dir / "eval_report.json").read_text())
        assert summary["n"] == 3
        assert 0.0 <= summary["mean_f1"] <= 1.0
        assert "mean_f1_x100" in summary
        assert "mean_generator_prompt_tokens" in summary
        rows = (out_dir / "eval_examples.jsonl").read_text().splitlines()
        assert len(rows) == 3

    def test_limit(self, index_dir, script_path, dataset_path, tmp_path):
        out_dir = tmp_path / "reports"
        code = main(
            [
                "eval",
                str(dataset_path),
                "--limit",
                "2",
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert json.loads((out_dir / "eval_report.json").read_text())["n"] == 2

    def test_missing_dataset(self, index_dir, script_path, tmp_path, capsys):
        code = main(
            [
                "eval",
                str(tmp_path / "absent.jsonl"),
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
            ]
        )
        assert code == EXIT_IO


class TestSweepCommand:
    def test_csv_shape_eight_rows(self, index_dir, script_path, dataset_path, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                str(dataset_path),
                "--k",
                "3,5,10,15",
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
                "--out",
                str(out_csv),
            ]
        )
        assert code == EXIT_OK
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 8  # 2 pipelines x 4 k values
        assert {row["pipeline"] for row in rows} == {"resp", "standard"}

    def test_curves(self, index_dir, script_path, dataset_path, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                str(dataset_path),
                "--k",
                "2,4",
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
                "--out",
                str(out_csv),
            ]
        )
        assert code == EXIT_OK
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        resp_rows = [row for row in rows if row["pipeline"] == "resp"]
        standard_rows = [row for row in rows if row["pipeline"] == "standard"]
        assert {row["k"] for row in resp_rows} == {"2", "4"}
        resp_sizes = {float(row["mean_prompt_tokens"]) for row in resp_rows}
        assert len(resp_sizes) == 1  # summaries fixed -> constant across k
        standard_sizes = [float(row["mean_prompt_tokens"]) for row in standard_rows]
        assert standard_sizes[0] < standard_sizes[1]  # grows with k

    def test_bad_k_list(self, index_dir, script_path, dataset_path, capsys):
        code = main(
            [
                "sweep",
                str(dataset_path),
                "--k",
                "3,oops",
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
            ]
        )
        assert code == EXIT_CONFIG

    def test_unknown_pipeline(self, index_dir, script_path, dataset_path):
        code = main(
            [
                "sweep",
                str(dataset_path),
                "--pipelines",
                "resp,fancy",
                "--index-dir",
                str(index_dir),
                "--script",
                str(script_path),
            ]
        )
        assert code == EXIT_CONFIG


class TestDamagedIndex:
    def ask(self, index_dir, script_path):
        return main(["ask", "q?", "--index-dir", str(index_dir), "--script", str(script_path)])

    def test_truncated_postings_is_io_error(self, index_dir, script_path, capsys):
        postings = index_dir / "postings.bin"
        postings.write_bytes(postings.read_bytes()[:-5])
        assert self.ask(index_dir, script_path) == EXIT_IO
        assert "postings.bin" in capsys.readouterr().err

    def test_version_1_manifest_is_io_error_naming_the_fix(self, index_dir, script_path, capsys):
        manifest = index_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["format_version"] = 1
        manifest.write_text(json.dumps(data))
        assert self.ask(index_dir, script_path) == EXIT_IO
        err = capsys.readouterr().err
        assert "version 1" in err and "respqa index" in err

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda data: data.update(format_version=2), "version 2"),
            (lambda data: data.pop("postings_dtypes"), "postings_dtypes"),
            (lambda data: data["postings_dtypes"].update(term_freqs="<f8"), "'<f8'"),
            (lambda data: data.update(format_version=3), "version 3"),
        ],
        ids=["version-2", "no-dtypes", "unknown-dtype", "version-3"],
    )
    def test_manifest_this_version_cannot_read_is_io_error_naming_the_fix(
        self, index_dir, script_path, capsys, edit, fragment
    ):
        manifest = index_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        edit(data)
        manifest.write_text(json.dumps(data))
        assert self.ask(index_dir, script_path) == EXIT_IO
        err = capsys.readouterr().err
        assert fragment in err and "rebuild" in err and "respqa index" in err

    @pytest.mark.parametrize(
        "name, edit, fragment",
        [
            ("doc_indices", point_past_the_documents, "document index"),
            ("offsets", swap_second_and_third, "term offsets"),
        ],
        ids=["doc-index-past-the-end", "offsets-decrease"],
    )
    def test_postings_that_disagree_are_io_error(
        self, index_dir, script_path, capsys, name, edit, fragment
    ):
        edit_postings_array(index_dir, name, edit)
        assert self.ask(index_dir, script_path) == EXIT_IO
        err = capsys.readouterr().err
        assert fragment in err and "respqa index" in err

    def test_reindex_replaces_the_index(self, corpus_path, index_dir, script_path, capsys):
        (index_dir / "postings.bin").write_bytes(b"")
        assert main(["index", str(corpus_path), "--out", str(index_dir)]) == EXIT_OK
        assert self.ask(index_dir, script_path) == EXIT_OK
