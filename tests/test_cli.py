import csv
import hashlib
import json
import os
from pathlib import Path

import pytest

from respqa.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main
from respqa.config import ENV_API_KEY, ENV_ENDPOINT
from respqa.evaluation import ExampleResult
from respqa.llm import BackendRouter

from helpers import (
    GENERATE_MARKER,
    GOLDEN_EVIDENCE,
    JUDGE_MARKER,
    LOCAL_MARKER,
    OVERPLANNING_QUESTION,
    PLAN_RETRY_MARKER,
    SUMMARIZER_MARKER,
    edit_postings_array,
    film_corpus,
    overplanning_rules,
    point_past_the_documents,
    rewrite_index_file,
    swap_second_and_third,
    swap_terms,
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
def complete_calls(monkeypatch):
    """Every request that goes through BackendRouter.complete."""
    calls = []
    complete = BackendRouter.complete

    def counted(self, request):
        calls.append(request)
        return complete(self, request)

    monkeypatch.setattr(BackendRouter, "complete", counted)
    return calls


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

    def test_non_string_title_is_io_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "d1", "title": None, "contents": "text"}) + "\n")
        assert main(["index", str(path), "--out", str(tmp_path / "idx")]) == EXIT_IO
        assert f"{path}:1: 'title' must be a string" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_lone_surrogate_is_io_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        row = {"id": "d1", "title": "t", "contents": "half \ud800 pair"}
        path.write_text(json.dumps(row) + "\n")
        assert main(["index", str(path), "--out", str(tmp_path / "idx")]) == EXIT_IO
        assert f"{path}:1: 'contents' holds a lone surrogate" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_writes_the_pinned_index_bytes(self, tmp_path):
        # Accented ids, an empty title and a document of punctuation only. The
        # manifest carries each file's size and CRC-32, the dtypes and the
        # counts, so its digest pins every byte `respqa index` writes. A format
        # change updates the digest here.
        rows = [
            ("caf\u00e9-2", "Caf\u00e9", "Cr\u00e8me br\u00fbl\u00e9e at the caf\u00e9, twice."),
            ("caf\u00e9-1", "", "An untitled note on the caf\u00e9 and its cr\u00e8me."),
            ("\u00e9t\u00e9", "\u00c9t\u00e9", "Summer: the caf\u00e9 opens its terrace " * 6),
            ("z-punct", "Marks", "!!! ... -- ?"),
            ("abc", "ABC", "Plain ASCII text about a caf\u00e9 and a terrace."),
        ]
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            "".join(json.dumps({"id": i, "title": t, "contents": c}) + "\n" for i, t, c in rows)
        )
        assert main(["index", str(path), "--out", str(tmp_path / "idx")]) == EXIT_OK
        manifest = (tmp_path / "idx" / "manifest.json").read_bytes()
        assert json.loads(manifest)["postings_dtypes"]["doc_fields"] == "<u2"
        assert hashlib.sha256(manifest).hexdigest() == (
            "312f66c46104f9333853b178a8265ca893fce31e1297a9a3d3e99529f0eec96d"
        ), manifest.decode()


PINNED_SUFFICIENT = OVERPLANNING_QUESTION
PINNED_DUPLICATE = "Who starred in Twisted Fortune?"
PINNED_CAPPED = "Which comedian directed the film?"
PINNED_FAILED = "Who is Eddie Murphy?"


def pinned_rules() -> list[tuple[str, str]]:
    """One script for four questions, each ending its own way. The capped one
    plans a duplicate in round 1, retries to a novel sub-question and reaches
    the iteration cap; no judge rule matches the failed one."""
    judge = "accurately respond to the question "
    return [
        (SUMMARIZER_MARKER, GOLDEN_EVIDENCE + " [DONE]"),
        (judge + PINNED_SUFFICIENT, "Yes"),
        (judge + PINNED_DUPLICATE, "No"),
        (judge + PINNED_CAPPED, "No"),
        (PLAN_RETRY_MARKER + ": which comedian", "Who is Victor Varnado?"),
        ("[Target question]: " + PINNED_DUPLICATE, PINNED_DUPLICATE),
        ("[Target question]: " + PINNED_CAPPED, "Thought: Who directed Twisted Fortune?"),
        ("the question Who is Victor Varnado?", "No"),
        (LOCAL_MARKER, "Yes, Victor Varnado."),
        ("Question: " + PINNED_CAPPED, "Victor Varnado"),
        (GENERATE_MARKER, "Charlie Murphy"),
    ]


def test_ask_eval_and_sweep_write_the_pinned_bytes(index_dir, tmp_path):
    # The digests pin every byte of a trace, an eval report at parallelism 2
    # and a sweep CSV, so a change to how runs or results are recorded shows
    # here. A deliberate format change updates the digests.
    script = tmp_path / "pinned.jsonl"
    script.write_text(
        "".join(json.dumps({"match": m, "response": r}) + "\n" for m, r in pinned_rules())
    )
    dataset = tmp_path / "pinned_dataset.jsonl"
    golds = ["Charlie Murphy", "Charlie Murphy", "Victor Varnado", "Eddie Murphy"]
    questions = [PINNED_SUFFICIENT, PINNED_DUPLICATE, PINNED_CAPPED, PINNED_FAILED]
    dataset.write_text(
        "".join(
            json.dumps({"id": f"p{i}", "question": q, "golden_answers": [g]}) + "\n"
            for i, (q, g) in enumerate(zip(questions, golds))
        )
    )
    common = ["--index-dir", str(index_dir), "--script", str(script)]
    trace, reports, sweep = tmp_path / "trace.json", tmp_path / "reports", tmp_path / "sweep.csv"
    ask = ["ask", PINNED_CAPPED, *common, "--trace", str(trace), "--log-prompts"]
    assert main(ask) == EXIT_OK
    evaluate = ["eval", str(dataset), *common, "--parallelism", "2", "--out-dir", str(reports)]
    assert main(evaluate) == EXIT_OK
    assert main(["sweep", str(dataset), *common, "--k", "1,3", "--out", str(sweep)]) == EXIT_OK

    rows = [json.loads(line) for line in (reports / "eval_examples.jsonl").read_text().splitlines()]
    assert [row["stop_reason"] for row in rows] == [
        "judged_sufficient", "duplicate_plan", "max_iterations", None
    ]
    assert rows[3]["error"].startswith("no scripted rule matches call 1 (role=reasoner)")
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (trace, reports / "eval_examples.jsonl", reports / "eval_report.json", sweep)
    }
    assert digests == {
        "trace.json": "c4c32039852e8fbfac7073dda42acfed4677b165da23b22f5ce6a1c9fc75e0c9",
        "eval_examples.jsonl": "b2355e1605f4ffc664fce387e9bd49cc3a764fcc6aa2ebc8fc2b1a2807283792",
        "eval_report.json": "9ea0638e69f4605650741779cc9cf494df5e98e79a8acccb56a995adc3957713",
        "sweep.csv": "a4a8dc6b111de79eefff4e6f1fc460a3c7b43295ea2bc964e027402990007684",
    }


def test_ask_and_eval_write_non_ascii_text_unescaped(index_dir, tmp_path):
    # The pinned digests above cover ASCII text only.
    question, answer = "Qui a réalisé « Twisted Fortune » ?", "Víctor Varnadö"
    script = tmp_path / "script.jsonl"
    rules = [(SUMMARIZER_MARKER, "Évidence. [DONE]"), (JUDGE_MARKER, "Yes"), (GENERATE_MARKER, answer)]
    script.write_text("".join(json.dumps({"match": m, "response": r}) + "\n" for m, r in rules))
    dataset = tmp_path / "dataset.jsonl"
    row = {"id": "é1", "question": question, "golden_answers": [answer]}
    dataset.write_text(json.dumps(row) + "\n")
    common = ["--index-dir", str(index_dir), "--script", str(script)]
    trace, reports = tmp_path / "trace.json", tmp_path / "reports"
    assert main(["ask", question, *common, "--trace", str(trace)]) == EXIT_OK
    assert main(["eval", str(dataset), *common, "--out-dir", str(reports)]) == EXIT_OK
    for path in (trace, reports / "eval_examples.jsonl"):
        text = path.read_text(encoding="utf-8")
        assert question in text and answer in text and "\\u" not in text


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

    @pytest.mark.parametrize("trace", ["missing/trace.json", "."])
    def test_an_unwritable_trace_fails_before_any_call(
        self, index_dir, script_path, tmp_path, complete_calls, capsys, trace
    ):
        argv = ["ask", OVERPLANNING_QUESTION, "--index-dir", str(index_dir)]
        argv += ["--script", str(script_path)]
        assert main([*argv, "--trace", str(tmp_path / trace)]) == EXIT_IO
        captured = capsys.readouterr()
        assert str(tmp_path / trace.split("/")[0]) in captured.err and captured.out == ""
        assert complete_calls == []
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "corpus.jsonl", "index", "script.jsonl"
        ]
        assert main([*argv, "--trace", str(tmp_path / "trace.json")]) == EXIT_OK
        assert complete_calls
        assert json.loads((tmp_path / "trace.json").read_text())["final_answer"] == "Charlie Murphy"

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

    def test_script_without_a_matching_rule_is_runtime_error(self, index_dir, tmp_path, capsys):
        script = tmp_path / "silent.jsonl"
        script.write_text(json.dumps({"match": "no prompt holds this", "response": "x"}) + "\n")
        argv = ["ask", OVERPLANNING_QUESTION, "--index-dir", str(index_dir)]
        assert main([*argv, "--script", str(script)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no scripted rule matches call 0 (role=summarizer)")

    def test_a_script_rule_that_could_never_fire_is_a_config_error(self, index_dir, tmp_path, capsys):
        script = tmp_path / "never.jsonl"
        script.write_text(json.dumps({"match": -1, "response": "x"}) + "\n")
        argv = ["ask", OVERPLANNING_QUESTION, "--index-dir", str(index_dir)]
        assert main([*argv, "--script", str(script)]) == EXIT_CONFIG
        message = f"configuration error: {script}:1: call ordinal -1 is negative\n"
        assert capsys.readouterr().err == message

    def test_input_cap_below_one_document_is_runtime_error(
        self, index_dir, script_path, tmp_path, capsys
    ):
        config = tmp_path / "config.yaml"
        config.write_text("pipeline: {max_input_tokens: 5}\n")
        argv = ["ask", OVERPLANNING_QUESTION, "--config", str(config)]
        argv += ["--index-dir", str(index_dir), "--script", str(script_path)]
        assert main(argv) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: prompt estimate")
        assert "exceeds cap 5 even with 1 document(s)" in captured.err


class TestFlagErrors:
    """Invalid flag values exit with the configuration code, not a traceback."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep", "--k", "0,2", "--out", "sweep.csv"], "--k"),
            (["eval", "--limit", "-1", "--out-dir", "."], "--limit"),
            (["sweep", "--limit", "-1", "--out", "sweep.csv"], "--limit"),
            (["eval", "--parallelism", "0", "--out-dir", "."], "parallelism"),
            (["sweep", "--pipelines", ",", "--out", "sweep.csv"], "--pipelines"),
            (["sweep", "--k", "2,5,2", "--out", "sweep.csv"], "--k repeats 2"),
            (
                ["sweep", "--pipelines", "resp,standard,resp", "--out", "sweep.csv"],
                "--pipelines repeats 'resp'",
            ),
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

    def test_question_utf8_cannot_encode(self, index_dir, script_path, complete_calls, capsys):
        # A shell argument holding the byte 0xff reaches sys.argv as "\udcff".
        argv = ["ask", "alpha \udcff?", "--index-dir", str(index_dir), "--script", str(script_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: the question holds a lone surrogate '\\udcff'" in err
        assert complete_calls == []

    @pytest.mark.parametrize(
        "flag, value", [("--llm-endpoint", "http://flag.example/v1"), ("--model", "m")]
    )
    def test_llm_flag_no_backend_takes(
        self, flag, value, index_dir, script_path, tmp_path, complete_calls, capsys
    ):
        config = tmp_path / "config.yaml"
        config.write_text(f"backends: {{mock: {{kind: scripted, script: {script_path}}}}}\n")
        argv = ["ask", OVERPLANNING_QUESTION, "--config", str(config)]
        assert main([*argv, "--index-dir", str(index_dir), flag, value]) == EXIT_CONFIG
        assert f"{flag} is set, but no HTTP backend" in capsys.readouterr().err
        assert complete_calls == []

    @pytest.mark.parametrize("key", ["sk-€", "sk-SECRET\nx"])
    def test_an_api_key_no_header_can_carry(
        self, key, index_dir, complete_calls, monkeypatch, capsys
    ):
        monkeypatch.setenv(ENV_API_KEY, key)
        argv = ["ask", "alpha?", "--index-dir", str(index_dir)]
        assert main([*argv, "--llm-endpoint", "http://127.0.0.1:9/v1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"${ENV_API_KEY} cannot be sent in an HTTP header" in captured.err
        assert "sk-" not in captured.out + captured.err
        assert complete_calls == []

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

    def test_empty_script_flag_falls_back_to_the_file(self, tmp_path, index_dir, script_path, capsys):
        config_path = self.write_config(tmp_path, index_dir, script_path)
        argv = ["ask", OVERPLANNING_QUESTION, "--config", str(config_path), "--script", ""]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.strip() == "Charlie Murphy"

    def test_empty_script_flag_is_no_backend(self, index_dir, capsys, monkeypatch):
        monkeypatch.delenv(ENV_ENDPOINT, raising=False)
        assert main(["ask", "q?", "--index-dir", str(index_dir), "--script", ""]) == EXIT_CONFIG
        assert "no completion backend configured" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "one-newline"])
    def test_an_empty_template_override_fails_before_any_call(
        self, tmp_path, index_dir, script_path, complete_calls, capsys, text
    ):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "judge.txt").write_text(text)
        argv = ["ask", OVERPLANNING_QUESTION, "--index-dir", str(index_dir)]
        argv += ["--script", str(script_path), "--templates-dir", str(templates)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(templates / "judge.txt") in err and "template 'judge' is empty" in err
        assert complete_calls == []


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
    def test_line_that_is_not_an_object(self, kind, code, tmp_path, index_dir, script_path, capsys):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(json.dumps(self.FIRST_ROWS[kind]) + "\n[1, 2]\n")
        assert self.run(kind, path, tmp_path, index_dir, script_path) == code
        assert f"{path}:2: expected an object" in capsys.readouterr().err

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

    def test_non_string_dataset_id_is_io_error_naming_the_line(
        self, tmp_path, index_dir, script_path, capsys
    ):
        path = tmp_path / "dataset.jsonl"
        row = {"id": None, "question": "q?", "golden_answers": ["a"]}
        path.write_text(json.dumps(self.FIRST_ROWS["dataset"]) + "\n" + json.dumps(row) + "\n")
        assert self.run("dataset", path, tmp_path, index_dir, script_path) == EXIT_IO
        assert f"{path}:2: 'id' must be a non-empty string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, code, row, key",
        [
            (
                "dataset",
                EXIT_IO,
                {"id": "e2", "question": "alpha \ud800?", "golden_answers": ["a"]},
                "question",
            ),
            ("script", EXIT_CONFIG, {"match": "q?", "response": "Yes. x \ud800"}, "response"),
        ],
    )
    def test_lone_surrogate_names_line_and_key(
        self, kind, code, row, key, tmp_path, index_dir, script_path, complete_calls, capsys
    ):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(json.dumps(self.FIRST_ROWS[kind]) + "\n" + json.dumps(row) + "\n")
        assert self.run(kind, path, tmp_path, index_dir, script_path) == code
        err = capsys.readouterr().err
        assert f"{path}:2: '{key}' holds a lone surrogate '\\ud800', which UTF-8 cannot encode" in err
        assert complete_calls == []
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize(
        "kind, code, row, key",
        [
            ("corpus", EXIT_IO, {"id": 5, "title": "\ud800", "contents": "x"}, "title"),
            (
                "dataset",
                EXIT_IO,
                {"id": "q", "question": "\ud800", "golden_answers": [3]},
                "question",
            ),
            ("script", EXIT_CONFIG, {"match": 1.5, "response": "\ud800"}, "response"),
        ],
    )
    def test_a_lone_surrogate_is_named_before_the_loaders_own_faults(
        self, kind, code, row, key, tmp_path, index_dir, script_path, capsys
    ):
        # The reader checks every string it hands on before the loader checks
        # types, so the same row always gives the same message.
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(json.dumps(row) + "\n")
        assert self.run(kind, path, tmp_path, index_dir, script_path) == code
        assert f"{path}:1: '{key}' holds a lone surrogate '\\ud800'" in capsys.readouterr().err

    def test_repeated_dataset_id_is_io_error_naming_the_line(
        self, tmp_path, index_dir, script_path, complete_calls, capsys
    ):
        path = tmp_path / "dataset.jsonl"
        row = json.dumps(self.FIRST_ROWS["dataset"])
        path.write_text(row + "\n" + row + "\n")
        assert self.run("dataset", path, tmp_path, index_dir, script_path) == EXIT_IO
        assert f"{path}:2: duplicate id 'e1'" in capsys.readouterr().err
        assert complete_calls == []
        assert not (tmp_path / "reports").exists()

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

    def test_an_out_dir_that_is_a_file_fails_before_any_call(
        self, index_dir, script_path, dataset_path, tmp_path, complete_calls, capsys
    ):
        blocker = tmp_path / "reports"
        blocker.write_text("a file")
        argv = ["eval", str(dataset_path), "--index-dir", str(index_dir), "--script", str(script_path)]
        assert main([*argv, "--out-dir", str(blocker)]) == EXIT_IO
        assert "reports" in capsys.readouterr().err
        assert complete_calls == []
        assert blocker.read_text() == "a file"
        # A report file that is a directory fails as early and leaves no temporary file.
        out = tmp_path / "out"
        for name in ("eval_report.json", "eval_examples.jsonl"):
            (out / name).mkdir(parents=True)
            assert main([*argv, "--out-dir", str(out)]) == EXIT_IO
            assert name in capsys.readouterr().err
            assert complete_calls == []
            assert [path.name for path in out.iterdir()] == [name]
            (out / name).rmdir()
        assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
        assert complete_calls

    @pytest.mark.parametrize("earlier", [True, False])
    def test_a_row_that_fails_mid_write_leaves_no_new_report(
        self, index_dir, script_path, dataset_path, tmp_path, monkeypatch, earlier
    ):
        out = tmp_path / "reports"
        out.mkdir()
        argv = ["eval", str(dataset_path), "--index-dir", str(index_dir)]
        argv += ["--script", str(script_path), "--out-dir", str(out)]
        if earlier:
            assert main(argv) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        to_dict = ExampleResult.to_dict
        serialized = []

        def fail_on_the_second_row(row):
            serialized.append(row)
            if len(serialized) == 2:
                raise TypeError("not JSON serializable")
            return to_dict(row)

        monkeypatch.setattr(ExampleResult, "to_dict", fail_on_the_second_row)
        with pytest.raises(TypeError):
            main(argv)
        assert len(serialized) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_the_rows_replace_their_file_before_the_report(
        self, index_dir, script_path, dataset_path, tmp_path, monkeypatch
    ):
        # A reader that finds the new eval_report.json finds the rows it summarizes.
        replaced = []
        replace = os.replace

        def recorded(source, target):
            replaced.append(Path(target).name)
            replace(source, target)

        monkeypatch.setattr(os, "replace", recorded)
        argv = ["eval", str(dataset_path), "--index-dir", str(index_dir)]
        assert main([*argv, "--script", str(script_path), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert replaced == ["eval_examples.jsonl", "eval_report.json"]

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

    @pytest.mark.parametrize("out", ["missing/sweep.csv", "."])
    def test_an_unwritable_out_fails_before_any_call(
        self, index_dir, script_path, dataset_path, tmp_path, complete_calls, capsys, out
    ):
        argv = ["sweep", str(dataset_path), "--k", "3", "--index-dir", str(index_dir)]
        argv += ["--script", str(script_path)]
        assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_IO
        assert str(tmp_path / out.split("/")[0]) in capsys.readouterr().err
        assert complete_calls == []
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "corpus.jsonl", "dataset.jsonl", "index", "script.jsonl"
        ]
        assert main([*argv, "--out", str(tmp_path / "sweep.csv")]) == EXIT_OK
        assert complete_calls

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

    def test_k_list_without_a_value(self, index_dir, script_path, dataset_path, capsys):
        argv = ["sweep", str(dataset_path), "--k", ",", "--index-dir", str(index_dir)]
        assert main([*argv, "--script", str(script_path)]) == EXIT_CONFIG
        assert "--k must name at least one value" in capsys.readouterr().err

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


def drop_the_last_term(index_dir):
    """terms.txt one term short of the manifest's num_terms, its CRC-32 kept right."""
    terms = (index_dir / "terms.txt").read_bytes()
    rewrite_index_file(index_dir, "terms.txt", terms[: terms.rindex(b"\n")])


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
            (lambda data: data.update(format_version=4), "version 4"),
            (lambda data: data.update(format_version=5), "version 5"),
        ],
        ids=["version-2", "no-dtypes", "unknown-dtype", "version-3", "version-4", "version-5"],
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

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            (lambda index: (index / "manifest.json").write_text("[1, 2]"), "not a JSON object"),
            (drop_the_last_term, "term counts disagree with the manifest"),
        ],
        ids=["manifest-not-an-object", "num-terms-disagrees"],
    )
    def test_manifest_that_disagrees_is_io_error(
        self, index_dir, script_path, capsys, damage, fragment
    ):
        damage(index_dir)
        assert self.ask(index_dir, script_path) == EXIT_IO
        assert fragment in capsys.readouterr().err

    def test_terms_out_of_order_are_io_error(self, index_dir, script_path, capsys):
        swap_terms(index_dir, 0, 1)
        assert self.ask(index_dir, script_path) == EXIT_IO
        err = capsys.readouterr().err
        assert "terms.txt" in err and "ascending byte order" in err and "respqa index" in err

    def test_reindex_replaces_the_index(self, corpus_path, index_dir, script_path, capsys):
        (index_dir / "postings.bin").write_bytes(b"")
        assert main(["index", str(corpus_path), "--out", str(index_dir)]) == EXIT_OK
        assert self.ask(index_dir, script_path) == EXIT_OK
