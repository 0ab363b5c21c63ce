"""The iterative retrieve-summarize-judge-plan loop and the one-shot baseline.

Every run produces a full RunTrace: per-round retrieval hits, summaries,
judgements, planning results, the decision taken, and the final answer. The
loop performs at most ``max_iterations`` retrievals no matter how the
backends behave, and never retrieves the same normalized sub-question twice.
Both pipelines run a question inside one ``_Run``, which builds each round's
record, the trace and, for a backend failure, the PipelineError naming the round.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

from .agents import (
    AgentCall,
    Judgement,
    LocalAnswer,
    PipelineAgents,
    PipelineConfig,
    PlanResult,
)
from .errors import BackendError, PipelineError
from .evaluation import EvalReport, evaluate
from .llm import whitespace_token_estimate
from .memory import MemoryState
from .retrieval import RetrievedDocument, Retriever

logger = logging.getLogger(__name__)

DECISION_GENERATE = "generate"
DECISION_CONTINUE = "continue"
DECISION_FORCED_GENERATE = "forced_generate"

STOP_JUDGED_SUFFICIENT = "judged_sufficient"
STOP_MAX_ITERATIONS = "max_iterations"
STOP_DUPLICATE_PLAN = "duplicate_plan"
STOP_SINGLE_ROUND = "single_round"  # baseline pipeline only

PIPELINE_RESP = "resp"
PIPELINE_STANDARD = "standard"


@dataclass
class IterationRecord:
    """Full audit of one retrieval round."""

    round: int
    sub_question: str
    retrieved: list[RetrievedDocument]
    global_summary: str
    local_answer: LocalAnswer | None
    judgement: Judgement | None
    decision: str
    plan: PlanResult | None = None
    prompts: dict[str, str] | None = None


@dataclass
class RunTrace:
    """Everything that happened while answering one question."""

    question: str
    pipeline: str
    iterations: list[IterationRecord]
    final_answer: str
    stop_reason: str
    anomalies: list[str]
    generator_prompt_tokens: float
    memory: MemoryState | None = None

    @property
    def sub_questions(self) -> list[str]:
        return [iteration.sub_question for iteration in self.iterations]

    def to_dict(self) -> dict:
        """Nested dicts down to the memory's entries; JSON writes its tuples as lists."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)


# The decision a round's record carries, by the stop reason the round ended with.
_DECISIONS = {
    None: DECISION_CONTINUE,
    STOP_JUDGED_SUFFICIENT: DECISION_GENERATE, STOP_SINGLE_ROUND: DECISION_GENERATE,
    STOP_MAX_ITERATIONS: DECISION_FORCED_GENERATE, STOP_DUPLICATE_PLAN: DECISION_FORCED_GENERATE,
}


@dataclass
class _Run:
    """One question's run: its agents, bound to its config and a fresh call log,
    its memory, records and trace. A blank question is refused before any call.
    Leaving it cancels an early generate call not yet begun (a failed run sends
    no such request) and raises a BackendError as the round's PipelineError.
    """

    question: str
    agents: PipelineAgents
    config: PipelineConfig
    log: list[tuple[str, str]] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)
    memory: MemoryState | None = None
    early: AgentCall | None = None
    logged: int = 0  # log entries in the records so far

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        self.agents = replace(self.agents, config=self.config, prompt_log=self.log)

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if self.early is not None and self.early.reply is not None:
            self.early.reply.cancel()
        if isinstance(exc, BackendError):
            role, index = exc.role_tag, len(self.iterations)
            message = f"round {index}: {role or 'unknown'} backend failed: {exc}"
            raise PipelineError(message, round_index=index, role_tag=role) from exc

    def record(self, stop_reason: str | None, **fields) -> None:
        """The next round's record: ``fields``, the decision ``stop_reason``
        makes, and the prompts logged since the last record."""
        prompts = dict(self.log[self.logged :]) if self.config.log_prompts else None
        self.logged = len(self.log)
        self.iterations.append(IterationRecord(
            round=len(self.iterations), decision=_DECISIONS[stop_reason], prompts=prompts, **fields
        ))

    def trace(self, pipeline: str, answer: str, stop_reason: str) -> RunTrace:
        """The run's trace; the generator's prompt is the last one logged. Each
        unparseable reply is noted, a round's local answer before its judgement."""
        anomalies = [
            f"round {record.round}: unparseable {kind}: {reply.raw_text!r}"
            for record in self.iterations
            for kind, reply in (("local answer", record.local_answer), ("judgement", record.judgement))
            if reply is not None and reply.anomaly
        ]
        return RunTrace(
            question=self.question, pipeline=pipeline, iterations=self.iterations,
            final_answer=answer, stop_reason=stop_reason, anomalies=anomalies,
            generator_prompt_tokens=whitespace_token_estimate(self.log[-1][1]), memory=self.memory,
        )


def run_resp(question: str, retriever: Retriever, agents: PipelineAgents, config: PipelineConfig) -> RunTrace:
    """Run the full iterative loop for one question.

    Round 0 retrieves with the question itself and produces no local answer.
    Every round, the newest global summary is pushed before anything reads
    memory; the judge then decides whether to generate or plan. The loop
    ends on a sufficient judgement, on the iteration cap (generation happens
    anyway), or when planning cannot produce a novel sub-question. The caps
    and the generator temperature are ``config``'s, whatever ``agents`` holds.

    The last allowed round generates whatever the judge says, from the memory
    the judge reads, so its generate call is started before the judge's: a
    question can have two LLM calls in flight. A backend that replies by call
    order gets the same request after the judge's, as in the other rounds.
    A judge failure is the error raised, and the generator's reply is dropped.
    """
    with _Run(question, agents, config) as run:
        agents = run.agents
        memory = run.memory = MemoryState()
        sub_question = question
        for round_index in range(config.max_iterations):
            hits = retriever.retrieve(sub_question, config.top_k)
            summary = agents.summarize_global(hits, question)
            memory.push_global(round_index, summary)

            local_answer: LocalAnswer | None = None
            if round_index >= 1:
                local_answer = agents.answer_local(sub_question, memory)
                memory.push_local(
                    round_index, sub_question, local_answer.answer, local_answer.answered
                )

            if round_index == config.max_iterations - 1:
                run.early = agents.start_generate(question, memory)
            judgement = agents.judge(question, memory)

            plan_result: PlanResult | None = None
            if judgement.sufficient:
                stop_reason = STOP_JUDGED_SUFFICIENT
            elif round_index == config.max_iterations - 1:
                # Iteration budget exhausted: proceed straight to generation,
                # without planning a sub-question that would never be retrieved.
                stop_reason = STOP_MAX_ITERATIONS
            else:
                plan_result = agents.plan(question, memory, memory.seen_subquestions(question))
                stop_reason = STOP_DUPLICATE_PLAN if plan_result.forced_termination else None

            if stop_reason:
                answer = agents.generate(question, memory, run.early)
            run.record(
                stop_reason, sub_question=sub_question, retrieved=hits, global_summary=summary,
                local_answer=local_answer, judgement=judgement, plan=plan_result,
            )
            if stop_reason:
                break
            sub_question = plan_result.sub_question
        return run.trace(PIPELINE_RESP, answer, stop_reason)


def run_standard_rag(
    question: str, retriever: Retriever, agents: PipelineAgents, config: PipelineConfig
) -> RunTrace:
    """One retrieval, one generation from the raw documents; no memory."""
    with _Run(question, agents, config) as run:
        hits = retriever.retrieve(question, config.top_k)
        answer = run.agents.generate_standard(question, hits)
        run.record(
            STOP_SINGLE_ROUND, sub_question=question, retrieved=hits, global_summary="",
            local_answer=None, judgement=None,
        )
        return run.trace(PIPELINE_STANDARD, answer, STOP_SINGLE_ROUND)


@dataclass(frozen=True, kw_only=True)
class SweepRow(EvalReport):
    """One sweep cell: the ``EvalReport`` of ``pipeline`` at ``k``."""

    pipeline: str
    k: int


def sweep_k(
    examples: Sequence,
    k_values: Sequence[int],
    pipeline: str,
    make_runner: Callable[[int], Callable[[str], RunTrace]],
    parallelism: int = 1,
) -> list[SweepRow]:
    """Metric and generator-prompt-size curves over documents-per-iteration.

    ``make_runner(k)`` must return a ready-to-call runner for that k;
    per-run errors are collected into the row, not raised.
    """
    rows = []
    for k in k_values:
        report = evaluate(make_runner(k), examples, parallelism=parallelism)
        rows.append(SweepRow(pipeline=pipeline, k=k, **vars(report)))
        logger.info(
            "sweep %s k=%d: mean_f1=%.4f mean_prompt_tokens=%.1f errors=%d",
            pipeline,
            k,
            report.mean_f1,
            report.mean_prompt_tokens,
            report.errors,
        )
    return rows
