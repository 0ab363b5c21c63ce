import json
import logging
import random
import re
import string
import threading

import pytest

from respqa.errors import BackendError, DatasetError, PipelineError, ScriptError
from respqa.evaluation import (
    QAExample,
    evaluate,
    exact_match,
    load_dataset,
    normalize_answer,
    token_f1,
)
from respqa.pipeline import RunTrace
from respqa.retrieval import tokenize

from helpers import f1_brute_force


class TestNormalizeAnswer:
    def test_articles_case_punctuation(self):
        assert normalize_answer("The Charlie Murphy.") == "charlie murphy"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_articles_only(self):
        assert normalize_answer("a an the") == ""

    def test_article_inside(self):
        assert normalize_answer("A Tale of the City") == "tale of city"

    @pytest.mark.parametrize(
        "text, expected",
        [("A.I. research", "ai research"), ("the-end", "theend"), ("An's", "ans")],
    )
    def test_punctuation_is_stripped_before_articles_are_dropped(self, text, expected):
        # SQuAD's order: a word that punctuation splits is one word, never an article.
        assert normalize_answer(text) == expected

    @pytest.mark.parametrize(
        "text, expected", [("$5 + tax", "5 tax"), ("a<b>=c", "abc"), ("x^2|y~z`", "x2yz")]
    )
    def test_the_ascii_symbols_the_official_scorers_strip_are_stripped(self, text, expected):
        # string.punctuation holds $+<=>^`|~, which Unicode files as symbols (S), not P.
        assert normalize_answer(text) == expected

    def test_idempotent(self):
        rng = random.Random(11)
        alphabet = string.ascii_letters + string.digits + string.punctuation + "  "
        for _ in range(100):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
            once = normalize_answer(text)
            assert normalize_answer(once) == once


class TestTokenF1:
    def test_identity(self):
        assert token_f1("Charlie Murphy", ["Charlie Murphy"]) == 1.0

    def test_partial_overlap(self):
        assert token_f1("Charlie", ["Charlie Murphy"]) == pytest.approx(2 / 3, abs=1e-4)

    def test_disjoint(self):
        assert token_f1("Eddie", ["Charlie Murphy"]) == 0.0

    def test_max_over_golds(self):
        assert token_f1("Charlie", ["Eddie Murphy", "Charlie"]) == 1.0

    def test_both_empty_after_normalization(self):
        # No token is shared, so F1 is 0, as HotpotQA's and SQuAD's scorers give;
        # the normalized strings are equal, so EM is 1.
        for prediction, gold in (("the", "a"), ("", "The")):
            assert token_f1(prediction, [gold]) == 0.0
            assert exact_match(prediction, [gold]) == 1.0

    def test_one_empty(self):
        assert token_f1("", ["Charlie"]) == 0.0
        assert token_f1("Charlie", [""]) == 0.0

    def test_requires_golds(self):
        with pytest.raises(ValueError):
            token_f1("x", [])

    def test_normalization_applied(self):
        assert token_f1("the Charlie Murphy!", ["Charlie, Murphy"]) == 1.0

    def test_ascii_symbols_score_as_the_official_scorers_do(self):
        assert token_f1("$5", ["5"]) == 1.0
        assert token_f1("x + y", ["x y"]) == 1.0

    @pytest.mark.parametrize(
        "prediction, gold",
        [("yes, both are", "yes"), ("no", "no way"), ("noanswer", "no answer"), ("No.", "yes")],
    )
    def test_a_bare_yes_no_or_noanswer_scores_only_against_itself(self, prediction, gold):
        # HotpotQA's official scorer: no partial credit where either side is bare.
        assert token_f1(prediction, [gold]) == 0.0
        assert token_f1(gold, [prediction]) == 0.0

    def test_a_bare_answer_matches_itself_up_to_normalization(self):
        assert token_f1("Yes.", ["yes"]) == 1.0
        assert token_f1("no", ["no way", "No!"]) == 1.0

    def test_symmetric_for_single_gold(self):
        rng = random.Random(5)
        words = ["alpha", "beta", "gamma", "delta"]
        for _ in range(50):
            a = " ".join(rng.choices(words, k=rng.randint(0, 5)))
            b = " ".join(rng.choices(words, k=rng.randint(0, 5)))
            assert token_f1(a, [b]) == pytest.approx(token_f1(b, [a]), abs=1e-12)

    def test_bounds_and_brute_force_agreement(self):
        rng = random.Random(17)
        words = ["red", "green", "blue", "cyan", "violet", "umber"]
        for _ in range(100):
            pred = " ".join(rng.choices(words, k=rng.randint(0, 6)))
            gold = " ".join(rng.choices(words, k=rng.randint(0, 6)))
            score = token_f1(pred, [gold])
            assert 0.0 <= score <= 1.0
            expected = f1_brute_force(
                tokenize(normalize_answer(pred)), tokenize(normalize_answer(gold))
            )
            assert score == pytest.approx(expected, abs=1e-9)


class TestExactMatch:
    def test_match_up_to_normalization(self):
        assert exact_match("The Charlie Murphy.", ["charlie murphy"]) == 1.0

    def test_no_match(self):
        assert exact_match("Eddie", ["Charlie"]) == 0.0

    def test_any_gold(self):
        assert exact_match("42", ["41", "42"]) == 1.0

    def test_requires_golds(self):
        with pytest.raises(ValueError):
            exact_match("x", [])


class TestLoadDataset:
    def write(self, tmp_path, rows):
        path = tmp_path / "data.jsonl"
        with path.open("w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        return path

    def good_rows(self, n):
        return [
            {"id": f"q{i}", "question": f"Question {i}?", "golden_answers": [f"answer {i}"]}
            for i in range(n)
        ]

    def test_loads_rows_in_order(self, tmp_path):
        path = self.write(tmp_path, self.good_rows(3))
        examples = load_dataset(path)
        assert [e.example_id for e in examples] == ["q0", "q1", "q2"]
        assert examples[0].golden_answers == ("answer 0",)

    def test_limit_takes_first_rows(self, tmp_path):
        path = self.write(tmp_path, self.good_rows(1000))
        assert len(load_dataset(path, limit=1000)) == 1000
        assert len(load_dataset(path, limit=7)) == 7
        assert load_dataset(path, limit=0) == []

    def test_missing_golden_answers_names_line(self, tmp_path):
        rows = self.good_rows(2)
        rows.append({"id": "q2", "question": "Question 2?"})
        path = self.write(tmp_path, rows)
        with pytest.raises(DatasetError, match=":3:"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(self.good_rows(1)[0]) + "\n{oops\n")
        with pytest.raises(DatasetError, match=":2:"):
            load_dataset(path)

    @pytest.mark.parametrize("question", ["", "  \t"])
    def test_blank_question_names_line(self, tmp_path, question):
        rows = [*self.good_rows(1), {"id": "q1", "question": question, "golden_answers": ["a"]}]
        with pytest.raises(DatasetError, match=":2: 'question' must be non-empty"):
            load_dataset(self.write(tmp_path, rows))

    @pytest.mark.parametrize("example_id", [None, [1], 1, 1.0, True, ""])
    def test_id_that_is_not_a_non_empty_string_names_line(self, tmp_path, example_id):
        rows = [*self.good_rows(1), {"id": example_id, "question": "q?", "golden_answers": ["a"]}]
        with pytest.raises(DatasetError, match=":2: 'id' must be a non-empty string"):
            load_dataset(self.write(tmp_path, rows))

    @pytest.mark.parametrize("key", ["id", "question", "golden_answers"])
    def test_lone_surrogate_names_line_and_key(self, tmp_path, key):
        row = {"id": "q1", "question": "alpha?", "golden_answers": ["a"]}
        if key == "golden_answers":
            row[key] = ["a", "b \ud800"]
        else:
            row[key] += " \ud800"
        path = self.write(tmp_path, [*self.good_rows(1), row])
        message = f":2: '{key}' holds a lone surrogate '\\ud800', which UTF-8 cannot encode"
        with pytest.raises(DatasetError, match=re.escape(message)):
            load_dataset(path)

    def test_repeated_id_names_line_and_id(self, tmp_path):
        rows = [*self.good_rows(2), {"id": "q1", "question": "again?", "golden_answers": ["a"]}]
        with pytest.raises(DatasetError, match=":3: duplicate id 'q1'"):
            load_dataset(self.write(tmp_path, rows))

    def test_empty_golds_rejected(self, tmp_path):
        path = self.write(tmp_path, [{"id": "x", "question": "q?", "golden_answers": []}])
        with pytest.raises(DatasetError, match="golden_answers"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "absent.jsonl")

    def test_negative_limit(self, tmp_path):
        path = self.write(tmp_path, self.good_rows(1))
        with pytest.raises(ValueError):
            load_dataset(path, limit=-1)


def canned_trace(question: str, answer: str, rounds: int = 1) -> RunTrace:
    return RunTrace(
        question=question,
        pipeline="resp",
        iterations=[None] * rounds,  # only the count matters for the report
        final_answer=answer,
        stop_reason="judged_sufficient",
        anomalies=[],
        generator_prompt_tokens=100.0,
        memory=None,
    )


class TestEvaluate:
    EXAMPLES = [
        QAExample("e1", "q1?", ("Charlie Murphy",)),
        QAExample("e2", "q2?", ("Charlie Murphy",)),
        QAExample("e3", "q3?", ("Charlie Murphy",)),
    ]

    def test_all_correct(self):
        report = evaluate(lambda q: canned_trace(q, "Charlie Murphy"), self.EXAMPLES)
        assert report.n == 3
        assert report.mean_f1 == pytest.approx(1.0)
        assert report.mean_em == pytest.approx(1.0)
        assert report.errors == 0

    def test_known_mixture(self):
        answers = {"q1?": "Charlie Murphy", "q2?": "Charlie", "q3?": "Eddie"}
        report = evaluate(lambda q: canned_trace(q, answers[q]), self.EXAMPLES)
        assert report.mean_f1 == pytest.approx((1.0 + 2 / 3 + 0.0) / 3, abs=1e-4)
        assert report.mean_em == pytest.approx(1 / 3)

    def test_every_gold_answer_is_scored(self):
        examples = [QAExample("e1", "q1?", ("Eddie Murphy", "Charlie Murphy"))]
        [row] = evaluate(lambda q: canned_trace(q, "Charlie Murphy"), examples).rows
        assert (row.f1, row.em) == (1.0, 1.0)

    def test_error_scores_zero_and_is_counted(self):
        def run(question):
            if question == "q2?":
                raise RuntimeError("backend exploded")
            return canned_trace(question, "Charlie Murphy")

        report = evaluate(run, self.EXAMPLES)
        assert report.mean_f1 == pytest.approx(2 / 3, abs=1e-4)
        assert report.errors == 1
        failed = report.rows[1]
        assert failed.error == "backend exploded"
        assert failed.f1 == 0.0
        assert report.stop_reasons == {"judged_sufficient": 2}

    @pytest.mark.parametrize(
        "exc, error",
        [
            (ZeroDivisionError(), "ZeroDivisionError"),
            (KeyError("k"), "KeyError: 'k'"),
            (ValueError(5), "ValueError: 5"),
            (IndexError("list index out of range"), "list index out of range"),
        ],
    )
    def test_a_bug_is_named_and_its_traceback_logged_once(self, caplog, exc, error):
        def run(question):
            if question == "q2?":
                raise exc
            return canned_trace(question, "Charlie Murphy")

        with caplog.at_level(logging.ERROR, logger="respqa.evaluation"):
            report = evaluate(run, self.EXAMPLES, parallelism=2)
        assert [row.error for row in report.rows] == [None, error, None]
        assert report.errors == 1
        [record] = caplog.records
        assert record.levelno == logging.ERROR and "'e2'" in record.getMessage()
        assert record.exc_info[1] is exc

    @pytest.mark.parametrize(
        "exc",
        [
            BackendError("'x'", role_tag="reasoner"),
            PipelineError("", round_index=1),
            ScriptError("no rule matches"),
        ],
    )
    def test_a_package_error_keeps_its_text_and_logs_nothing(self, caplog, exc):
        def run(question):
            raise exc

        with caplog.at_level(logging.DEBUG, logger="respqa.evaluation"):
            report = evaluate(run, self.EXAMPLES[:1])
        assert report.rows[0].error == str(exc)
        assert caplog.records == []

    def test_mean_rounds_over_completed_runs(self):
        rounds = {"q1?": 1, "q2?": 3, "q3?": 2}
        report = evaluate(
            lambda q: canned_trace(q, "Charlie Murphy", rounds=rounds[q]), self.EXAMPLES
        )
        assert report.mean_rounds == pytest.approx(2.0)

    def test_parallel_matches_serial(self):
        answers = {"q1?": "Charlie Murphy", "q2?": "Charlie", "q3?": "Eddie"}
        run = lambda q: canned_trace(q, answers[q])
        serial = evaluate(run, self.EXAMPLES, parallelism=1)
        parallel = evaluate(run, self.EXAMPLES, parallelism=4)
        assert serial == parallel

    @pytest.mark.parametrize("examples, parallelism", [(3, 1), (1, 4)])
    def test_a_batch_without_a_pool_runs_in_the_callers_thread(self, examples, parallelism):
        # So Ctrl-C stops it at once: a pool's exit waits for the running question.
        threads = []

        def run(question):
            threads.append(threading.current_thread())
            return canned_trace(question, "Charlie Murphy")

        assert evaluate(run, self.EXAMPLES[:examples], parallelism=parallelism).errors == 0
        assert threads == [threading.current_thread()] * examples

    def test_deterministic(self):
        run = lambda q: canned_trace(q, "Charlie Murphy")
        assert evaluate(run, self.EXAMPLES) == evaluate(run, self.EXAMPLES)

    def test_empty_dataset(self):
        report = evaluate(lambda q: canned_trace(q, "x"), [])
        assert report.n == 0
        assert report.mean_f1 == 0.0

