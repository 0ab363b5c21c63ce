import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

import respqa
from respqa import llm
from respqa.agents import (
    NO_INFO_SENTINEL,
    SLOT_DOCS,
    SLOT_OVERARCHING,
    PipelineAgents,
    PromptTemplateSet,
    render_docs,
    render_template,
)
from respqa.errors import BackendError, PipelineError, PromptTooLargeError
from respqa.evaluation import EvalReport, QAExample, evaluate
from respqa.llm import (
    ROLE_TAGS,
    BackendRouter,
    LlmResponse,
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
    SweepRow,
    run_resp,
    run_standard_rag,
    sweep_k,
)
from respqa.retrieval import BM25Index, Document, RetrievedDocument

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
    summarized_titles,
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


def duplicate_plan_rules() -> list[ScriptedRule]:
    """Judge never satisfied; planner only repeats the overarching question."""
    return [
        ScriptedRule(SUMMARIZER_MARKER, "Evidence. [DONE]"),
        ScriptedRule(JUDGE_MARKER, "No"),
        ScriptedRule("[You Thought]:", TOPIC_QUESTION),
        ScriptedRule(GENERATE_MARKER, "forced answer"),
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
        agents, backend = scripted_agents(duplicate_plan_rules())
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

    @pytest.mark.parametrize(
        "run, rules, stop_reason, rounds, decision",
        [
            (
                run_resp,
                [ScriptedRule(5, "Yes"), *always_no_rules()],  # round 1's judge is call 5
                STOP_JUDGED_SUFFICIENT,
                2,
                DECISION_GENERATE,
            ),
            (run_resp, always_no_rules(), STOP_MAX_ITERATIONS, 3, DECISION_FORCED_GENERATE),
            (
                run_resp,
                # Round 0 plans a novel sub-question (call 2); round 1 only repeats the question.
                [
                    ScriptedRule(2, "What about alpha specifically?"),
                    ScriptedRule(LOCAL_MARKER, "No"),
                    *duplicate_plan_rules(),
                ],
                STOP_DUPLICATE_PLAN,
                2,
                DECISION_FORCED_GENERATE,
            ),
            (run_standard_rag, always_no_rules(), STOP_SINGLE_ROUND, 1, DECISION_GENERATE),
        ],
        ids=[STOP_JUDGED_SUFFICIENT, STOP_MAX_ITERATIONS, STOP_DUPLICATE_PLAN, STOP_SINGLE_ROUND],
    )
    def test_each_stop_reason_makes_its_decision(self, run, rules, stop_reason, rounds, decision):
        agents, _ = scripted_agents(rules)
        trace = run(TOPIC_QUESTION, BM25Index.build(TOPIC_DOCS), agents, PipelineConfig())
        assert (trace.stop_reason, len(trace.iterations)) == (stop_reason, rounds)
        decisions = [record.decision for record in trace.iterations]
        assert decisions == [DECISION_CONTINUE] * (rounds - 1) + [decision]

    def test_a_scripted_capped_question_assembles_its_generate_prompt_once(self, monkeypatch):
        # The scripted backend is not started early; generate sends the call
        # start_generate built, without assembling its prompt again.
        templates = []
        assemble = respqa.agents.assemble_prompt

        def counting(template, *args, **kwargs):
            templates.append(template)
            return assemble(template, *args, **kwargs)

        monkeypatch.setattr(respqa.agents, "assemble_prompt", counting)
        index = BM25Index.build(TOPIC_DOCS)
        agents, backend = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig())
        assert trace.stop_reason == STOP_MAX_ITERATIONS
        assert templates.count(agents.templates.generate) == 1
        assert backend.history[-1].role_tag == "generator"

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

    def test_anomalies_note_each_unparseable_reply_in_round_order(self):
        index = BM25Index.build(TOPIC_DOCS)
        rules = [
            ScriptedRule(SUMMARIZER_MARKER, "Evidence. [DONE]"),
            ScriptedRule(JUDGE_MARKER, "Perhaps?"),
            ScriptedRule(LOCAL_MARKER, "Hmm"),
            ScriptedRule(PLAN_MARKER, "What about alpha specifically?"),
            ScriptedRule(GENERATE_MARKER, "answer"),
        ]
        agents, _ = scripted_agents(rules)
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig(max_iterations=2))
        assert trace.stop_reason == STOP_MAX_ITERATIONS
        # Round 0 has no local answer; a round's local answer precedes its judgement.
        assert trace.anomalies == [
            "round 0: unparseable judgement: 'Perhaps?'",
            "round 1: unparseable local answer: 'Hmm'",
            "round 1: unparseable judgement: 'Perhaps?'",
        ]

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

    def test_a_backend_error_without_a_role_names_the_role_unknown(self):
        class Roleless:
            backend_id = "roleless"

            def complete(self, request):
                raise BackendError("wire down")

        agents = PipelineAgents(BackendRouter({role: Roleless() for role in ROLE_TAGS}))
        with pytest.raises(PipelineError) as excinfo:
            run_resp(TOPIC_QUESTION, BM25Index.build(TOPIC_DOCS), agents, PipelineConfig())
        assert str(excinfo.value) == "round 0: unknown backend failed: wire down"
        assert (excinfo.value.round_index, excinfo.value.role_tag) == (0, None)

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
    @pytest.mark.parametrize(
        "rules, question, corpus, stop_reason",
        [
            (overplanning_rules, OVERPLANNING_QUESTION, film_corpus(), STOP_JUDGED_SUFFICIENT),
            (always_no_rules, TOPIC_QUESTION, TOPIC_DOCS, STOP_MAX_ITERATIONS),
            (duplicate_plan_rules, TOPIC_QUESTION, TOPIC_DOCS, STOP_DUPLICATE_PLAN),
        ],
        ids=[STOP_JUDGED_SUFFICIENT, STOP_MAX_ITERATIONS, STOP_DUPLICATE_PLAN],
    )
    def test_prompts_recorded_when_enabled(self, rules, question, corpus, stop_reason):
        index = BM25Index.build(corpus)
        agents, backend = scripted_agents(rules())
        trace = run_resp(question, index, agents, PipelineConfig(log_prompts=True))
        assert trace.stop_reason == stop_reason
        recorded = [p for record in trace.iterations for p in (record.prompts or {}).values()]
        sent = [call.prompt for call in backend.history]
        assert recorded == sent
        assert list(trace.iterations[-1].prompts)[-1] == "generate"
        assert trace.generator_prompt_tokens == whitespace_token_estimate(sent[-1])

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

    def test_empty_question_rejected(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, backend = scripted_agents([])
        with pytest.raises(ValueError):
            run_standard_rag("   ", index, agents, PipelineConfig())
        assert backend.history == []

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


class TableRetriever:
    """Serves each query the documents its table lists, ranked in list order.
    Document ``x`` is titled ``x``; its text is ``x`` and ``words[x]`` more words."""

    def __init__(self, table: dict[str, list[str]], words: dict[str, int]):
        self.table, self.words = table, words

    def documents(self, ids: list[str]) -> list[RetrievedDocument]:
        return [
            RetrievedDocument(x, x, " ".join([x] + ["filler"] * self.words.get(x, 4)), 1.0, rank)
            for rank, x in enumerate(ids, 1)
        ]

    def retrieve(self, query, k):
        return self.documents(self.table[query][:k])


class TestSummarizeOnce:
    """Each document reaches the summarizer once per question, unless a round
    has nothing new that fits, when it sends what it would send without the rule."""

    SUB_QUESTIONS = [TOPIC_QUESTION, "What about alpha specifically?", "What about beta specifically?"]

    def run(self, rounds: list[list[str]], words: dict[str, int] | None = None, **config):
        """always_no_rules' three rounds; round i retrieves ``rounds[i]``."""
        retriever = TableRetriever(dict(zip(self.SUB_QUESTIONS, rounds)), words or {})
        agents, backend = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, retriever, agents, PipelineConfig(log_prompts=True, **config))
        sent = [summarized_titles(record.prompts["global_summary"]) for record in trace.iterations]
        return trace, backend, sent

    def summarizer_estimate(self, ids: list[str], words: dict[str, int]) -> float:
        docs = render_docs(TableRetriever({}, words).documents(ids))
        template = PromptTemplateSet.load_default().global_evidence
        bindings = {SLOT_OVERARCHING: TOPIC_QUESTION, SLOT_DOCS: "\n\n".join(docs)}
        return whitespace_token_estimate(render_template(template, bindings))

    def test_a_round_summarizes_only_its_new_hits_in_rank_order(self):
        _, _, sent = self.run([["a", "b", "c"], ["b", "d", "a", "e"], ["e", "f"]])
        assert sent == [["a", "b", "c"], ["d", "e"], ["f"]]

    def test_a_round_with_no_new_hit_resends_them_all_with_the_same_calls(self):
        trace, backend, sent = self.run([["a", "b"], ["b", "a"], ["a"]])
        assert sent == [["a", "b"], ["b", "a"], ["a"]]
        summarize, local, judge, plan = "summarizer", "summarizer", "reasoner", "reasoner"
        assert [call.role_tag for call in backend.history] == [
            summarize, judge, plan, summarize, local, judge, plan, summarize, local, judge, "generator"
        ]
        assert trace.stop_reason == STOP_MAX_ITERATIONS
        assert [entry.text for entry in trace.memory.global_evidence] == ["A summary of the evidence."] * 3

    def test_a_hit_the_cap_cut_is_offered_again(self):
        words = dict.fromkeys("abcd", 40)
        cap = math.ceil(self.summarizer_estimate(["a", "b"], words))
        assert cap < self.summarizer_estimate(["a", "b", "c"], words)
        _, _, sent = self.run([["a", "b", "c"], ["a", "c", "d"], ["c"]], words, max_input_tokens=cap)
        assert sent == [["a", "b"], ["c", "d"], ["c"]]

    def test_a_first_new_hit_over_the_cap_alone_sends_the_rounds_full_prompt(self):
        words = {"huge": 400}
        assert self.summarizer_estimate(["huge"], words) > 300
        trace, _, sent = self.run([["a", "b"], ["a", "huge", "d"], ["d"]], words, max_input_tokens=300)
        assert sent == [["a", "b"], ["a"], ["d"]]
        assert trace.stop_reason == STOP_MAX_ITERATIONS

    def test_the_record_lists_every_hit(self):
        rounds = [["a", "b", "c"], ["b", "d", "a", "e"], ["a", "b"]]
        trace, _, _ = self.run(rounds)
        assert [[hit.doc_id for hit in record.retrieved] for record in trace.iterations] == rounds


class TestTraceSerialization:
    def test_round_trip_to_json(self):
        index = BM25Index.build(TOPIC_DOCS)
        agents, _ = scripted_agents(always_no_rules())
        trace = run_resp(TOPIC_QUESTION, index, agents, PipelineConfig(log_prompts=True))
        data = json.loads(trace.to_json())
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

    def test_resp_key_lists(self):
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
        trace = run_resp(TOPIC_QUESTION, BM25Index.build(TOPIC_DOCS), agents, config)
        data = json.loads(trace.to_json())

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

    def test_standard_key_lists(self):
        agents, _ = scripted_agents([ScriptedRule(GENERATE_MARKER, "x")])
        config = PipelineConfig(log_prompts=True)
        trace = run_standard_rag(TOPIC_QUESTION, BM25Index.build(TOPIC_DOCS), agents, config)
        data = json.loads(trace.to_json())

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

    @staticmethod
    def make_runner(k):
        index = BM25Index.build(film_corpus())

        def run(question):
            agents, _ = scripted_agents(overplanning_rules())
            return run_resp(question, index, agents, PipelineConfig(top_k=k))

        return run

    def test_shape_and_metrics(self):
        rows = sweep_k(self.make_examples(), [3, 5], PIPELINE_RESP, self.make_runner)
        assert [(row.pipeline, row.k) for row in rows] == [("resp", 3), ("resp", 5)]
        assert all(row.n == 2 for row in rows)
        assert rows[0].mean_prompt_tokens == rows[1].mean_prompt_tokens
        assert rows[0].mean_f1 > 0

    def test_each_cell_is_the_eval_report_of_its_runner(self):
        examples = self.make_examples()
        rows = sweep_k(examples, [3, 5], PIPELINE_RESP, self.make_runner)
        for row, k in zip(rows, [3, 5], strict=True):
            report = evaluate(self.make_runner(k), examples)
            assert isinstance(row, EvalReport)
            assert row == SweepRow(pipeline=PIPELINE_RESP, k=k, **vars(report))


class TemplateBackend:
    """Thread-safe and not order-dependent: each reply is a function of the
    prompt alone (the judge's is ``judge``), and every call is kept with its
    start and end time. ``fail`` names roles whose calls raise BackendError;
    ``final_judge``, if given, is the ordinal (from 1) of the judge call that
    fails when ``reasoner`` is in ``fail``. ``barrier``, if given, must be
    reached by that judge call and by the generator call."""

    backend_id = "template"

    def __init__(self, judge="No", fail=(), final_judge=None, barrier=None):
        self.judge, self.fail, self.final_judge, self.barrier = judge, fail, final_judge, barrier
        self.lock = threading.Lock()
        self.calls = []  # (role, prompt, start, end), in the order the calls ended
        self.judges = 0

    def reply(self, prompt):
        if SUMMARIZER_MARKER in prompt:
            return "A summary of the evidence. [DONE]"
        if LOCAL_MARKER in prompt:
            return "No"
        if JUDGE_MARKER in prompt:
            return self.judge
        if PLAN_MARKER in prompt:
            return f"What about the alpha topic, step {prompt.count('Q: ')}?"
        assert GENERATE_MARKER in prompt
        return "final answer"

    def complete(self, request):
        start = time.perf_counter()
        role = request.role_tag
        with self.lock:
            if role == "reasoner" and JUDGE_MARKER in request.prompt:
                self.judges += 1
                final = self.judges == self.final_judge
            else:
                final = role == "generator"
        if final and self.barrier is not None:
            self.barrier.wait()
        if role in self.fail and (role != "reasoner" or final):
            raise BackendError("wire down", role_tag=role)
        text = self.reply(request.prompt)
        with self.lock:
            self.calls.append((role, request.prompt, start, time.perf_counter()))
        return LlmResponse(text=text, backend_id=self.backend_id, latency=0.0)


class SequentialTemplateBackend(TemplateBackend):
    order_dependent = True


def template_run(backend, **config):
    agents = PipelineAgents(BackendRouter({role: backend for role in ROLE_TAGS}))
    return run_resp(TOPIC_QUESTION, BM25Index.build(TOPIC_DOCS), agents, PipelineConfig(**config))


class TestFinalRoundOverlap:
    """The last allowed round sends the generate request alongside the judge's."""

    @pytest.mark.parametrize("rounds, judge", [(1, "No"), (1, "Yes"), (3, "No")])
    def test_judge_and_generator_are_in_flight_together(self, rounds, judge):
        # Each of the two calls waits for the other: run one at a time, both time out.
        barrier = threading.Barrier(2, timeout=5.0)
        backend = TemplateBackend(judge=judge, final_judge=rounds, barrier=barrier)
        trace = template_run(backend, max_iterations=rounds)
        assert trace.final_answer == "final answer" and len(trace.iterations) == rounds
        assert not barrier.broken
        generator = [call for call in backend.calls if call[0] == "generator"]
        judges = [call for call in backend.calls if JUDGE_MARKER in call[1]]
        assert len(generator) == 1 and len(judges) == rounds
        # No generator call is in flight during an earlier round's judge.
        assert all(end < generator[0][2] for _, _, _, end in judges[:-1])

    def test_a_fresh_interpreter_overlaps_without_a_runtime(self):
        # No AppRuntime is built and no helper thread runs before the run starts.
        code = (
            "import sys, threading\n"
            "from test_pipeline import TemplateBackend, template_run\n"
            "barrier = threading.Barrier(2, timeout=5.0)\n"
            "backend = TemplateBackend(final_judge=1, barrier=barrier)\n"
            "trace = template_run(backend, max_iterations=1)\n"
            "print(trace.final_answer, barrier.broken, 'respqa.config' in sys.modules)\n"
        )
        paths = [os.path.dirname(os.path.dirname(respqa.__file__)), os.path.dirname(__file__)]
        paths.append(os.environ.get("PYTHONPATH", ""))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["final", "answer", "False", "False"]

    @pytest.mark.parametrize("log_prompts", [False, True])
    @pytest.mark.parametrize("rounds", [1, 3])
    def test_overlap_changes_no_call_and_no_trace_byte(self, rounds, log_prompts):
        overlapped, sequential = TemplateBackend(), SequentialTemplateBackend()
        traces = [
            template_run(backend, max_iterations=rounds, log_prompts=log_prompts)
            for backend in (overlapped, sequential)
        ]
        assert traces[0].to_dict() == traces[1].to_dict()
        assert traces[0].stop_reason == STOP_MAX_ITERATIONS
        calls = [sorted(call[:2] for call in backend.calls) for backend in (overlapped, sequential)]
        assert calls[0] == calls[1] and len(calls[0]) == {1: 3, 3: 11}[rounds]
        # The sequential backend saw the calls one at a time, generator last.
        assert [call[0] for call in sequential.calls][-2:] == ["reasoner", "generator"]

    def test_parallel_runs_match_their_sequential_traces(self):
        # More workers than cores, and a short switch interval to mix the threads.
        index = BM25Index.build(TOPIC_DOCS)
        config = PipelineConfig(log_prompts=True)
        overlapped = TemplateBackend()
        agents = PipelineAgents(BackendRouter({role: overlapped for role in ROLE_TAGS}))
        questions = [f"What links alpha and beta topics, case {i}?" for i in range(64)]
        traces = {}

        def run(question):
            traces[question] = run_resp(question, index, agents, config)
            return traces[question]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            examples = [QAExample(f"e{i}", q, ("final answer",)) for i, q in enumerate(questions)]
            assert evaluate(run, examples, parallelism=8).errors == 0
        finally:
            sys.setswitchinterval(interval)
        sequential = SequentialTemplateBackend()
        agents = PipelineAgents(BackendRouter({role: sequential for role in ROLE_TAGS}))
        for question in questions:
            assert traces[question].to_dict() == run_resp(question, index, agents, config).to_dict()
        assert sorted(c[:2] for c in overlapped.calls) == sorted(c[:2] for c in sequential.calls)

    def test_scripted_history_keeps_its_order_under_parallel_runs(self):
        # Integer rules at the final round's judge (9) and generate (10) positions:
        # a generate request sent ahead of the judge would take position 9.
        rules = [
            ScriptedRule(2, "What about alpha specifically?"),
            ScriptedRule(6, "What about beta specifically?"),
            ScriptedRule(9, "Yes"),
            ScriptedRule(10, "positional answer"),
            ScriptedRule(SUMMARIZER_MARKER, "A summary of the evidence. [DONE]"),
            ScriptedRule(JUDGE_MARKER, "No"),
            ScriptedRule(LOCAL_MARKER, "No"),
            ScriptedRule(GENERATE_MARKER, "substring answer"),
        ]
        index = BM25Index.build(TOPIC_DOCS)
        histories = {}

        def run(question):
            agents, backend = scripted_agents(rules)
            trace = run_resp(question, index, agents, PipelineConfig())
            histories[question] = backend.history
            return trace

        examples = [
            QAExample(f"e{i}", f"What links alpha and beta topics, case {i}?", ("positional answer",))
            for i in range(200)
        ]
        report = evaluate(run, examples, parallelism=4)
        assert report.errors == 0 and report.mean_em == 1.0
        roles = ["summarizer", "reasoner", "reasoner"] + ["summarizer", "summarizer", "reasoner",
                                                          "reasoner"] * 2
        roles[-1] = "generator"
        for example in examples:
            agents, backend = scripted_agents(rules)
            run_resp(example.question, index, agents, PipelineConfig())
            assert histories[example.question] == backend.history
            assert [call.role_tag for call in backend.history] == roles

    @pytest.mark.parametrize("generator_fails", [False, True])
    def test_judge_failure_is_the_error_raised(self, generator_fails):
        fail = ("reasoner", "generator") if generator_fails else ("reasoner",)
        backend = TemplateBackend(fail=fail, final_judge=3)
        with pytest.raises(PipelineError) as excinfo:
            template_run(backend)
        assert (excinfo.value.round_index, excinfo.value.role_tag) == (2, "reasoner")

    def test_a_failed_run_cancels_its_early_generate_call(self, monkeypatch, thread_starts):
        # The early generate call waits for a helper that is held unstarted
        # until the run has failed: the run cancels it, so none is ever sent.
        monkeypatch.setattr(llm, "_HELPERS", llm._Helpers())
        thread_starts.hold = True
        backend = TemplateBackend(fail=("reasoner",), final_judge=3)
        with pytest.raises(PipelineError, match="round 2: reasoner backend failed") as excinfo:
            template_run(backend)
        assert (excinfo.value.round_index, excinfo.value.role_tag) == (2, "reasoner")
        [helper] = thread_starts.threads
        thread_starts.begin(helper)
        assert llm._HELPERS._idle.acquire(timeout=5)  # the helper has dequeued the call
        assert backend.judges == 3
        assert [call for call in backend.calls if call[0] == "generator"] == []

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_early_generator_failure_is_the_generators(self, rounds):
        with pytest.raises(PipelineError) as excinfo:
            template_run(TemplateBackend(fail=("generator",)), max_iterations=rounds)
        assert (excinfo.value.round_index, excinfo.value.role_tag) == (rounds - 1, "generator")
        assert "generator backend failed: wire down" in str(excinfo.value)

    @pytest.mark.parametrize("judge_fails", [False, True])
    def test_generate_prompt_over_the_cap_is_not_started(self, judge_fails):
        backend = TemplateBackend(fail=("reasoner",) if judge_fails else (), final_judge=3)
        padding = "word " * 200
        templates = replace(
            PromptTemplateSet.load_default(),
            generate=padding + PromptTemplateSet.load_default().generate,
        )
        agents = PipelineAgents(BackendRouter({role: backend for role in ROLE_TAGS}), templates)
        config = PipelineConfig(max_input_tokens=200)
        index = BM25Index.build(TOPIC_DOCS)
        if judge_fails:
            with pytest.raises(PipelineError) as excinfo:
                run_resp(TOPIC_QUESTION, index, agents, config)
            assert (excinfo.value.round_index, excinfo.value.role_tag) == (2, "reasoner")
        else:
            with pytest.raises(PromptTooLargeError):
                run_resp(TOPIC_QUESTION, index, agents, config)
        assert backend.judges == 3
        assert [call[0] for call in backend.calls if call[0] == "generator"] == []
