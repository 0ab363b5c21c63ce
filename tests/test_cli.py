import csv
import json

import pytest

from respqa.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

from helpers import OVERPLANNING_QUESTION, film_corpus, overplanning_rules


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


class TestConfigFile:
    def write_config(self, tmp_path, index_dir, script_path, roles=None):
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

    def test_missing_config_file(self, capsys):
        assert main(["ask", "q?", "--config", "/does/not/exist.yaml"]) == EXIT_CONFIG


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

    def test_reindex_replaces_the_index(self, corpus_path, index_dir, script_path, capsys):
        (index_dir / "postings.bin").write_bytes(b"")
        assert main(["index", str(corpus_path), "--out", str(index_dir)]) == EXIT_OK
        assert self.ask(index_dir, script_path) == EXIT_OK
