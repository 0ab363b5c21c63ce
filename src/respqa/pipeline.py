"""The iterative retrieve-summarize-judge-plan loop and the one-shot baseline.

Every run produces a full RunTrace: per-round retrieval hits, summaries,
judgements, planning results, the decision taken, and the final answer. The
loop performs at most ``max_iterations`` retrievals no matter how the
backends behave, and never retrieves the same normalized sub-question twice.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .agents import (
    NO_INFO_SENTINEL,
    Judgement,
    LocalAnswer,
    PipelineAgents,
    PipelineConfig,
    PlanResult,
)
from .errors import BackendError, PipelineError
from .evaluation import evaluate
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
        data = asdict(self)
        data["memory"] = self.memory.to_dict() if self.memory else None
        return data

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, ensure_ascii=False), encoding="utf-8"
        )


def run_resp(question: str, retriever: Retriever, agents: PipelineAgents, config: PipelineConfig) -> RunTrace:
    """Run the full iterative loop for one question.

    Round 0 retrieves with the question itself and produces no local answer.
    Every round, the newest global summary is pushed before anything reads
    memory; the judge then decides whether to generate or plan. The loop
    ends on a sufficient judgement, on the iteration cap (generation happens
    anyway), or when planning cannot produce a novel sub-question. The caps
    and the generator temperature are ``config``'s, whatever ``agents`` holds.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    log: list[tuple[str, str]] = []
    agents = replace(agents, config=config, prompt_log=log)
    memory = MemoryState()
    iterations: list[IterationRecord] = []
    anomalies: list[str] = []
    sub_question = question
    stop_reason = STOP_MAX_ITERATIONS

    try:
        for round_index in range(config.max_iterations):
            round_start = len(log)
            hits = retriever.retrieve(sub_question, config.top_k)

            if hits:
                summary = agents.summarize_global(hits, question)
            else:
                # Nothing retrievable: the sentinel keeps the evidence queue
                # honest and the loop moving.
                summary = NO_INFO_SENTINEL
            memory.push_global(round_index, summary)

            local_answer: LocalAnswer | None = None
            if round_index >= 1:
                local_answer = agents.answer_local(sub_question, memory)
                if local_answer.anomaly:
                    anomalies.append(
                        f"round {round_index}: unparseable local answer: {local_answer.raw_text!r}"
                    )
                memory.push_local(
                    round_index, sub_question, local_answer.answer, local_answer.answered
                )

            judgement = agents.judge(question, memory)
            if judgement.anomaly:
                anomalies.append(
                    f"round {round_index}: unparseable judgement: {judgement.raw_text!r}"
                )

            plan_result: PlanResult | None = None
            if judgement.sufficient:
                decision = DECISION_GENERATE
                stop_reason = STOP_JUDGED_SUFFICIENT
            elif round_index == config.max_iterations - 1:
                # Iteration budget exhausted: proceed straight to generation,
                # without planning a sub-question that would never be retrieved.
                decision = DECISION_FORCED_GENERATE
                stop_reason = STOP_MAX_ITERATIONS
            else:
                forbidden = memory.seen_subquestions(question)
                plan_result = agents.plan(question, memory, forbidden)
                if plan_result.forced_termination:
                    decision = DECISION_FORCED_GENERATE
                    stop_reason = STOP_DUPLICATE_PLAN
                else:
                    decision = DECISION_CONTINUE

            iterations.append(
                IterationRecord(
                    round=round_index,
                    sub_question=sub_question,
                    retrieved=hits,
                    global_summary=summary,
                    local_answer=local_answer,
                    judgement=judgement,
                    decision=decision,
                    plan=plan_result,
                    prompts=dict(log[round_start:]) if config.log_prompts else None,
                )
            )
            if decision != DECISION_CONTINUE:
                break
            sub_question = plan_result.sub_question

        # The generator's failures are reported against the last loop round.
        answer = agents.generate(question, memory)
    except BackendError as exc:
        raise _round_failure(exc, round_index) from exc
    _, generate_prompt = log[-1]
    if config.log_prompts:
        iterations[-1].prompts["generate"] = generate_prompt

    return RunTrace(
        question=question,
        pipeline=PIPELINE_RESP,
        iterations=iterations,
        final_answer=answer,
        stop_reason=stop_reason,
        anomalies=anomalies,
        generator_prompt_tokens=whitespace_token_estimate(generate_prompt),
        memory=memory,
    )


def run_standard_rag(
    question: str, retriever: Retriever, agents: PipelineAgents, config: PipelineConfig
) -> RunTrace:
    """One retrieval, one generation from the raw documents; no memory."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    log: list[tuple[str, str]] = []
    agents = replace(agents, config=config, prompt_log=log)
    hits = retriever.retrieve(question, config.top_k)
    try:
        answer = agents.generate_standard(question, hits)
    except BackendError as exc:
        raise _round_failure(exc, 0) from exc
    iteration = IterationRecord(
        round=0,
        sub_question=question,
        retrieved=hits,
        global_summary="",
        local_answer=None,
        judgement=None,
        decision=DECISION_GENERATE,
        prompts=dict(log) if config.log_prompts else None,
    )
    return RunTrace(
        question=question,
        pipeline=PIPELINE_STANDARD,
        iterations=[iteration],
        final_answer=answer,
        stop_reason=STOP_SINGLE_ROUND,
        anomalies=[],
        generator_prompt_tokens=whitespace_token_estimate(log[-1][1]),
        memory=None,
    )


def _round_failure(exc: BackendError, round_index: int) -> PipelineError:
    """The error surfaced for a backend failure, naming round and role."""
    return PipelineError(
        f"round {round_index}: {exc.role_tag or 'unknown'} backend failed: {exc}",
        round_index=round_index,
        role_tag=exc.role_tag,
    )


@dataclass(frozen=True)
class SweepRow:
    pipeline: str
    k: int
    mean_f1: float
    mean_prompt_tokens: float
    n: int
    errors: int


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
        rows.append(
            SweepRow(
                pipeline=pipeline,
                k=k,
                mean_f1=report.mean_f1,
                mean_prompt_tokens=report.mean_prompt_tokens,
                n=report.n,
                errors=report.errors,
            )
        )
        logger.info(
            "sweep %s k=%d: mean_f1=%.4f mean_prompt_tokens=%.1f errors=%d",
            pipeline,
            k,
            report.mean_f1,
            report.mean_prompt_tokens,
            report.errors,
        )
    return rows
