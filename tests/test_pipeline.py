import time

import pytest

from respqa.agents import NO_INFO_SENTINEL, PipelineAgents
from respqa.errors import BackendError, PipelineError
from respqa.evaluation import QAExample, evaluate
from respqa.llm import (
    ROLE_TAGS,
    BackendRouter,
    ScriptedBackend,
    ScriptedRule,
    whitespace_token_estimate,
)
from respqa.memory import normalize_question
from respqa.pipeline import (
    DECISION_CONTINUE,
    DECISION_FORCED_GENERATE,
    DECISION_GENERATE,
    PIPELINE_RESP,
    PIPELINE_STANDARD,
    STOP_DUPLICATE_PLAN,
    STOP_JUDGED_SUFFICIENT,
    STOP_MAX_ITERATIONS,
    STOP_SINGLE_ROUND,
    PipelineConfig,
    run_resp,
    run_standard_rag,
    sweep_k,
)
from respqa.retrieval import BM25Index, Document

from helpers import (
    GENERATE_MARKER,
    GOLDEN_EVIDENCE,
    JUDGE_MARKER,
    LOCAL_MARKER,
    OVERPLANNING_QUESTION,
    PLAN_MARKER,
    PLAN_RETRY_MARKER,
    REPETITIVE_QUESTION,
    REPETITIVE_SUBQ_1,
    REPETITIVE_SUBQ_2,
    SUMMARIZER_MARKER,
    capture_router,
    film_corpus,
    offtopic_corpus,
    overplanning_rules,
    repetitive_rules,
    scripted_agents,
)

TOPIC_DOCS = [
    Document("t1", "Alpha", "alpha topic details and background"),
    Document("t2", "Beta", "beta topic details and background"),
    Document("t3", "Gamma", "gamma topic details and background"),
]
TOPIC_QUESTION = "What links alpha and beta topics?"


def always_no_rules() -> list[ScriptedRule]:
    """Judge never satisfied; planner produces a fresh question per round."""
    return [
        ScriptedRule(2, "What about alpha specifically?"),
        ScriptedRule(6, "What about beta specifically?"),
        ScriptedRule(SUMMARIZER_MARKER, "A summary of the evidence. [DONE]"),
        ScriptedRule(JUDGE_MARKER, "No"),
        ScriptedRule(LOCAL_MARKER, "No"),
        ScriptedRule(GENERATE_MARKER, "final answer"),
    ]


class TestOverPlanningGolden:
    def run(self, config=None):
        index = BM25Index.build(film_corpus())
        agents, backend = scripted_agents(overplanning_rules())
        trace = run_resp(OVERPLANNING_QUESTION, index, agents, config or PipelineConfig())
        return trace, backend

    def test_single_round_stop(self):
        trace, _ = self.run()
        assert len(trace.iterations) == 1
        assert trace.stop_reason == STOP_JUDGED_SUFFICIENT
        assert trace.final_answer == "Charlie Murphy"

    def test_round_zero_shape(self):
        trace, _ = self.run()
        record = trace.iterations[0]
        assert record.round == 0
        assert record.sub_question == OVERPLANNING_QUESTION
        assert record.local_answer is None
        assert record.judgement is not None and record.judgement.sufficient
        assert record.decision == DECISION_GENERATE
        assert record.retrieved

    def test_memory_lengths(self):
        trace, _ = self.run()
        assert trace.memory is not None
        assert len(trace.memory.global_evidence) == 1
        assert len(trace.memory.local_pathway) == 0
        assert trace.memory.global_evidence[0].text == GOLDEN_EVIDENCE

    def test_exact_call_sequence(self):
        trace, backend = self.run()
        assert [call.role_tag for call in backend.history] == [
            "summarizer",
            "reasoner",
            "generator",
        ]


class TestRepetitivePlanningGolden:
    def run(self):
        index = BM25Index.build(offtopic_corpus())
        agents, backend = scripted_agents(repetitive_rules())
        trace = run_resp(REPETITIVE_QUESTION, index, agents, PipelineConfig())
        return trace, backend

    def test_three_rounds_and_stop(self):
        trace, _ = self.run()
        assert len(trace.iterations) == 3
        assert trace.stop_reason == STOP_MAX_ITERATIONS

    def test_all_retrievals_empty(self):
        trace, _ = self.run()
        assert all(record.retrieved == [] for record in trace.iterations)
        assert all(record.global_summary == NO_INFO_SENTINEL for record in trace.iterations)

    def test_subquestion_progression(self):
        trace, _ = self.run()
        assert trace.sub_questions == [
            REPETITIVE_QUESTION,
            REPETITIVE_SUBQ_1,
            REPETITIVE_SUBQ_2,
        ]
        assert trace.sub_questions[1] != trace.sub_questions[0]

    def test_retry_happened_in_round_one(self):
        trace, _ = self.run()
        assert trace.iterations[0].plan is not None
        assert trace.iterations[0].plan.attempts == 1
        assert trace.iterations[1].plan is not None
        assert trace.iterations[1].plan.attempts == 2
        assert trace.iterations[1].plan.forced_termination is False
        assert trace.iterations[2].plan is None  # final round goes straight to generation

    def test_local_answers_recorded_as_unanswered(self):
        trace, _ = self.run()
        assert trace.iterations[0].local_answer is None
        for record in trace.iterations[1:]:
            assert record.local_answer is not None
            assert record.local_answer.answered is False
        assert trace.memory is not None
        assert len(trace.memory.local_pathway) == 2


class TestLoopDecisions:
    def test_always_no_reaches_iteration_cap(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, backend = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert len(trace.iterations) == 3
        assert trace.stop_reason == STOP_MAX_ITERATIONS
        assert [r.decision for r in trace.iterations] == [
            DECISION_CONTINUE,
            DECISION_CONTINUE,
            DECISION_FORCED_GENERATE,
        ]
        # summarize+judge+plan, summarize+local+judge+plan, summarize+local+judge, generate
        assert len(backend.history) == 11

    def test_duplicate_planner_stops_early(self):
        index = BM25Index.build(TOPIC_DOCS)
        rules = [
            ScriptedRule(SUMMARIZER_MARKER, "Evidence. [DONE]"),
            ScriptedRule(JUDGE_MARKER, "No"),
            ScriptedRule("[You Thought]:", TOPIC_QUESTION),
            ScriptedRule(GENERATE_MARKER, "forced answer"),
        ]
        agents, backend = scripted_agents(rules)
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert trace.stop_reason == STOP_DUPLICATE_PLAN
        assert len(trace.iterations) == 1
        assert trace.iterations[0].decision == DECISION_FORCED_GENERATE
        assert trace.iterations[0].plan is not None
        assert trace.iterations[0].plan.forced_termination is True
        assert trace.final_answer == "forced answer"
        # summarize, judge, plan, plan retry, generate
        assert len(backend.history) == 5

    def test_max_iterations_one(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, backend = scripted_agents(
            [
                ScriptedRule(SUMMARIZER_MARKER, "Evidence. [DONE]"),
                ScriptedRule(JUDGE_MARKER, "No"),
                ScriptedRule(GENERATE_MARKER, "one-round answer"),
            ]
        )
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig(max_iterations=1))
        assert len(trace.iterations) == 1
        assert trace.stop_reason == STOP_MAX_ITERATIONS
        assert len(backend.history) == 3  # no plan call at the final round

    def test_no_duplicate_subquestions_across_trace(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, _ = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        normalized = [normalize_question(q) for q in trace.sub_questions]
        assert len(set(normalized)) == len(normalized)

    def test_judgement_present_every_round(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, _ = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert all(record.judgement is not None for record in trace.iterations)

    def test_anomalous_judge_counts_as_insufficient(self):
        index = BM25Index.build(TOPIC_DOCS)
        rules = [
            ScriptedRule(SUMMARIZER_MARKER, "Evidence. [DONE]"),
            ScriptedRule(JUDGE_MARKER, "Perhaps?"),
            ScriptedRule("[You Thought]:", TOPIC_QUESTION),  # duplicate -> stops fast
            ScriptedRule(GENERATE_MARKER, "answer"),
        ]
        agents, _ = scripted_agents(rules)
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert trace.stop_reason == STOP_DUPLICATE_PLAN
        assert any("unparseable judgement" in note for note in trace.anomalies)

    def test_empty_question_rejected(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, _ = scripted_agents([])
        with pytest.raises(ValueError):
            run_resp("   ", index, agents, PipelineConfig())


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 0},
            {"max_iterations": 0},
            {"max_input_tokens": 0},
            {"max_output_tokens": 0},
            {"generator_temperature": -1},
            {"generator_temperature": float("nan")},
            {"generator_temperature": float("inf")},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PipelineConfig(**kwargs)

    def test_defaults_match_protocol(self):
        config = PipelineConfig()
        assert config.top_k == 5
        assert config.max_iterations == 3
        assert config.max_input_tokens == 12_000
        assert config.max_output_tokens == 200
        assert config.generator_temperature == 0.0


@pytest.mark.parametrize("run", [run_resp, run_standard_rag])
def test_run_obeys_its_config_over_the_agents(run):
    """The config passed to the run sets the caps and the generator
    temperature, not the agents' own default config."""
    docs = [
        Document(f"d{i}", f"Note {i}", "twisted fortune " + " ".join(f"w{i}x{j}" for j in range(30)))
        for i in range(5)
    ]
    router, backend = capture_router("Yes")
    config = PipelineConfig(max_input_tokens=150, max_output_tokens=50, generator_temperature=0.7)
    run("Which twisted fortune?", BM25Index.build(docs), PipelineAgents(router), config)
    assert all(whitespace_token_estimate(r.prompt) <= 150 for r in backend.requests)
    assert {r.max_output_tokens for r in backend.requests} == {50}
    generator = [r.temperature for r in backend.requests if r.role_tag == "generator"]
    assert generator == [0.7]


def test_stop_reason_sufficient_iff_last_judgement_sufficient():
    index = BM25Index.build(TOPIC_DOCS)
    scenarios = [always_no_rules(), overplanning_rules()]
    questions = [TOPIC_QUESTION, TOPIC_QUESTION]
    for rules, question in zip(scenarios, questions):
        agents, _ = scripted_agents(rules)
        trace = run_resp(question, index, agents, PipelineConfig())
        last = trace.iterations[-1]
        assert (trace.stop_reason == STOP_JUDGED_SUFFICIENT) == bool(
            last.judgement and last.judgement.sufficient
        )


class TestErrorPropagation:
    class FailingBackend:
        backend_id = "failing"

        def complete(self, request):
            raise BackendError("wire down", role_tag=request.role_tag)

    def test_backend_failure_carries_round_and_role(self):
        from respqa.llm import ROLE_TAGS, BackendRouter
        from respqa.agents import PipelineAgents

        index = BM25Index.build(TOPIC_DOCS)
        router = BackendRouter({role: self.FailingBackend() for role in ROLE_TAGS})
        agents = PipelineAgents(router)
        with pytest.raises(PipelineError) as excinfo:
            run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert excinfo.value.round_index == 0
        assert excinfo.value.role_tag == "summarizer"

    class FailAfter:
        """Answers ``after`` calls through a scripted backend, then fails."""

        backend_id = "fail-after"

        def __init__(self, inner, after):
            self.inner = inner
            self.after = after

        def complete(self, request):
            if self.after == 0:
                raise BackendError("wire down", role_tag=request.role_tag)
            self.after -= 1
            return self.inner.complete(request)

    @pytest.mark.parametrize(
        "run, role, after, expected_round",
        [
            (run_resp, "generator", 0, 2),  # generation follows the last of three rounds
            (run_resp, "reasoner", 2, 1),  # round 0 judges and plans; round 1's judge fails
            (run_standard_rag, "generator", 0, 0),
        ],
    )
    def test_failure_reports_its_round_and_role(self, run, role, after, expected_round):
        index = BM25Index.build(TOPIC_DOCS)
        scripted = ScriptedBackend(always_no_rules())
        bindings = {tag: scripted for tag in ROLE_TAGS}
        bindings[role] = self.FailAfter(scripted, after)
        agents = PipelineAgents(BackendRouter(bindings))
        with pytest.raises(PipelineError) as excinfo:
            run(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert (excinfo.value.round_index, excinfo.value.role_tag) == (expected_round, role)


class TestPromptLogging:
    def test_prompts_recorded_when_enabled(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, backend = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig(log_prompts=True))
        recorded = [p for record in trace.iterations for p in (record.prompts or {}).values()]
        sent = [call.prompt for call in backend.history]
        assert recorded == sent
        assert trace.iterations[-1].prompts["generate"] == sent[-1]

    def test_prompts_absent_by_default(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, _ = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert all(record.prompts is None for record in trace.iterations)

    def test_standard_prompts(self):
        index = BM25Index.build(TOPIC_DOCS)
        for log_prompts in (True, False):
            agents, backend = scripted_agents([ScriptedRule(GENERATE_MARKER, "x")])
            config = PipelineConfig(log_prompts=log_prompts)
            trace = run_standard_rag(TOPIC_QUESTION, index, agents, config)
            expected = {"generate": backend.history[-1].prompt} if log_prompts else None
            assert trace.iterations[0].prompts == expected

    class SlowBackend:
        """A scripted backend that waits before each reply, so that
        concurrent runs interleave their calls."""

        backend_id = "slow"

        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            time.sleep(0.002)
            return self.inner.complete(request)

    def test_each_run_keeps_its_own_prompt_log(self):
        index = BM25Index.build(TOPIC_DOCS)
        rules = [
            ScriptedRule(SUMMARIZER_MARKER, "A summary of the evidence. [DONE]"),
            ScriptedRule(PLAN_RETRY_MARKER, "What about beta specifically?"),
            ScriptedRule(PLAN_MARKER, "What about alpha specifically?"),
            ScriptedRule(JUDGE_MARKER, "No"),
            ScriptedRule(LOCAL_MARKER, "No"),
            ScriptedRule(GENERATE_MARKER, "final answer"),
        ]
        backend = self.SlowBackend(ScriptedBackend(rules))
        agents = PipelineAgents(BackendRouter({role: backend for role in ROLE_TAGS}))
        config = PipelineConfig(log_prompts=True)
        questions = [f"What links alpha and beta topics, case {c}?" for c in "ABCDEFGH"]
        traces = {}

        def run(question):
            traces[question] = run_resp(question, index, agents, config)
            return traces[question]

        examples = [QAExample(f"e{i}", q, ("final answer",)) for i, q in enumerate(questions)]
        assert evaluate(run, examples, parallelism=4).errors == 0
        alone = run_resp(questions[0], index, agents, config)
        keys = [list(record.prompts) for record in alone.iterations]
        assert keys == [
            ["global_summary", "judge", "plan"],
            ["global_summary", "local_answer", "judge", "plan", "plan_retry"],
            ["global_summary", "local_answer", "judge", "generate"],
        ]
        for question, trace in traces.items():
            assert [list(record.prompts) for record in trace.iterations] == keys
            prompts = [p for record in trace.iterations for p in record.prompts.values()]
            for other in questions:
                if other != question:
                    assert not any(other in prompt for prompt in prompts)
            for record in trace.iterations:
                assert question in record.prompts["judge"]


@pytest.mark.parametrize("run", [run_resp, run_standard_rag])
def test_generator_prompt_tokens_count_the_sent_prompt(run):
    index = BM25Index.build(TOPIC_DOCS)
    agents, backend = scripted_agents(always_no_rules())
    trace = run(TOPIC_QUESTION, index, agents, PipelineConfig())
    assert backend.history[-1].role_tag == "generator"
    assert trace.generator_prompt_tokens == whitespace_token_estimate(backend.history[-1].prompt)


class TestStandardRag:
    def test_single_iteration_no_memory(self):
        index = BM25Index.build(film_corpus())
        agents, backend = scripted_agents([ScriptedRule(GENERATE_MARKER, "Charlie Murphy")])
        trace = run_standard_rag(OVERPLANNING_QUESTION, index, agents, PipelineConfig())
        assert trace.pipeline == PIPELINE_STANDARD
        assert len(trace.iterations) == 1
        assert trace.stop_reason == STOP_SINGLE_ROUND
        assert trace.memory is None
        assert trace.iterations[0].judgement is None
        assert trace.final_answer == "Charlie Murphy"
        assert len(backend.history) == 1

    def test_prompt_grows_with_k(self):
        index = BM25Index.build(film_corpus())
        sizes = []
        for k in (1, 3, 5):
            agents, _ = scripted_agents([ScriptedRule(GENERATE_MARKER, "x")])
            trace = run_standard_rag(
                OVERPLANNING_QUESTION, index, agents, PipelineConfig(top_k=k)
            )
            sizes.append(trace.generator_prompt_tokens)
        assert sizes[0] < sizes[1] < sizes[2]

    def test_zero_hits_generates_from_empty_reference(self):
        index = BM25Index.build(offtopic_corpus())
        agents, _ = scripted_agents([ScriptedRule(GENERATE_MARKER, "nothing to go on")])
        trace = run_standard_rag(REPETITIVE_QUESTION, index, agents, PipelineConfig())
        assert trace.iterations[0].retrieved == []
        assert trace.final_answer == "nothing to go on"


class TestGeneratorContextStability:
    def test_resp_prompt_invariant_to_k(self):
        index = BM25Index.build(film_corpus())
        sizes = []
        for k in (2, 5):
            agents, _ = scripted_agents(overplanning_rules())
            trace = run_resp(OVERPLANNING_QUESTION, index, agents, PipelineConfig(top_k=k))
            sizes.append(trace.generator_prompt_tokens)
        assert sizes[0] == sizes[1]


class TestTraceSerialization:
    def test_round_trip_to_json(self, tmp_path):
        import json

        index = BM25Index.build(TOPIC_DOCS)
        agents, _ = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig(log_prompts=True))
        path = tmp_path / "trace.json"
        trace.write_json(path)
        data = json.loads(path.read_text())
        assert data["question"] == TOPIC_QUESTION
        assert data["stop_reason"] == STOP_MAX_ITERATIONS
        assert len(data["iterations"]) == 3
        assert data["iterations"][0]["round"] == 0
        assert data["memory"]["global_evidence"][0]["round"] == 0
        assert data["iterations"][0]["prompts"]

    TOP_KEYS = [
        "question",
        "pipeline",
        "iterations",
        "final_answer",
        "stop_reason",
        "anomalies",
        "generator_prompt_tokens",
        "memory",
    ]
    ITERATION_KEYS = [
        "round",
        "sub_question",
        "retrieved",
        "global_summary",
        "local_answer",
        "judgement",
        "decision",
        "plan",
        "prompts",
    ]
    HIT_KEYS = ["doc_id", "title", "text", "score", "rank"]

    @staticmethod
    def written(trace, tmp_path) -> dict:
        import json

        path = tmp_path / "trace.json"
        trace.write_json(path)
        return json.loads(path.read_text(encoding="utf-8"))

    def test_resp_key_lists(self, tmp_path):
        # Round 0: a duplicate plan forces the retry; round 1 is the last
        # round, so it answers locally and generates without planning.
        rules = [
            ScriptedRule(PLAN_RETRY_MARKER, "What about alpha specifically?"),
            ScriptedRule(PLAN_MARKER, TOPIC_QUESTION),
            ScriptedRule(SUMMARIZER_MARKER, "A summary of the evidence. [DONE]"),
            ScriptedRule(JUDGE_MARKER, "No"),
            ScriptedRule(LOCAL_MARKER, "Yes, alpha details"),
            ScriptedRule(GENERATE_MARKER, "final answer"),
        ]
        agents, _ = scripted_agents(rules)
        config = PipelineConfig(max_iterations=2, log_prompts=True)
        data = self.written(
            run_resp(TOPIC_QUESTION, BM25Index.build(TOPIC_DOCS), agents, config), tmp_path
        )

        assert list(data) == self.TOP_KEYS
        first, second = data["iterations"]
        for iteration in (first, second):
            assert list(iteration) == self.ITERATION_KEYS
            assert iteration["retrieved"]
            for hit in iteration["retrieved"]:
                assert list(hit) == self.HIT_KEYS
            assert list(iteration["judgement"]) == ["sufficient", "raw_text", "anomaly"]
        assert first["local_answer"] is None
        assert list(second["local_answer"]) == ["answered", "answer", "anomaly", "raw_text"]
        assert list(first["plan"]) == ["sub_question", "attempts", "forced_termination"]
        assert first["plan"]["attempts"] == 2
        assert second["plan"] is None
        assert list(first["prompts"]) == ["global_summary", "judge", "plan", "plan_retry"]
        assert list(second["prompts"]) == ["global_summary", "local_answer", "judge", "generate"]
        assert list(data["memory"]) == ["global_evidence", "local_pathway"]
        assert [list(entry) for entry in data["memory"]["global_evidence"]] == [["round", "text"]] * 2
        assert [list(entry) for entry in data["memory"]["local_pathway"]] == [
            ["round", "sub_question", "answer", "answered"]
        ]

    def test_standard_key_lists(self, tmp_path):
        agents, _ = scripted_agents([ScriptedRule(GENERATE_MARKER, "x")])
        config = PipelineConfig(log_prompts=True)
        data = self.written(
            run_standard_rag(TOPIC_QUESTION, BM25Index.build(TOPIC_DOCS), agents, config), tmp_path
        )

        assert list(data) == self.TOP_KEYS
        assert data["memory"] is None
        (iteration,) = data["iterations"]
        assert list(iteration) == self.ITERATION_KEYS
        assert iteration["retrieved"]
        for hit in iteration["retrieved"]:
            assert list(hit) == self.HIT_KEYS
        assert iteration["local_answer"] is None
        assert iteration["judgement"] is None
        assert iteration["plan"] is None
        assert list(iteration["prompts"]) == ["generate"]


class TestSweep:
    def make_examples(self):
        from respqa.evaluation import QAExample

        return [
            QAExample("e1", OVERPLANNING_QUESTION, ("Charlie Murphy",)),
            QAExample("e2", "Which film did Victor Varnado direct?", ("Twisted Fortune",)),
        ]

    def test_shape_and_metrics(self):
        index = BM25Index.build(film_corpus())

        def make_runner(k):
            def run(question):
                agents, _ = scripted_agents(overplanning_rules())
                return run_resp(question, index, agents, PipelineConfig(top_k=k))

            return run

        rows = sweep_k(self.make_examples(), [3, 5], PIPELINE_RESP, make_runner)
        assert [(row.pipeline, row.k) for row in rows] == [("resp", 3), ("resp", 5)]
        assert all(row.n == 2 for row in rows)
        assert rows[0].mean_prompt_tokens == rows[1].mean_prompt_tokens
        assert rows[0].mean_f1 > 0
