"""A simulated LLM endpoint whose reply is a pure function of the prompt.

It recognises the five prompt templates of the pipeline, reads the facts
("<E> <r>-link <F>.") and the question chain out of the prompt text, and
answers the way a faithful reader of the prompt would. No state feeds the
reply, so answers are identical under any parallelism or call order.

Each call sleeps ``latency_s + per_token_s * estimated prompt tokens``, so
prompt size and call count reach wall time the way a real endpoint would.
"""

from __future__ import annotations

import re
import threading
import time

from respqa.llm import LlmRequest, LlmResponse

from .gen import LINK_SUFFIX, UNKNOWN_ANSWER, fact_sentence

_NAME = r"[A-Z][a-z]+ [A-Z][a-z]+"
_FACT = re.compile(rf"({_NAME}) ([a-z]+){re.escape(LINK_SUFFIX)} ({_NAME})\.")
_QUESTION = re.compile(rf"(?i:what) is the ((?:[a-z]+ of the )*[a-z]+) of ({_NAME})\?")

# Substrings that identify each prompt template.
_GLOBAL = "act as a professional writer"
_LOCAL = "respond completely and accurately to the question"
_JUDGE = "completely and accurately respond to the question"
_PLAN = "form of question for next retrieval"
_PLAN_TARGET = "[Target question]:"
_GENERATE = "Only give me the answer"
_GENERATE_QUESTION = "\nQuestion: "

WORDS_PER_TOKEN = 1.3


def estimate_tokens(text: str) -> float:
    """Whitespace words x 1.3, the package's documented prompt estimate."""
    return len(text.split()) * WORDS_PER_TOKEN


def _facts(text: str) -> dict[tuple[str, str], str]:
    return {(subj, rel): obj for subj, rel, obj in _FACT.findall(text)}


def question_chain(text: str) -> tuple[str, list[str]] | None:
    """(head entity, relations in hop order) of the first question in text."""
    match = _QUESTION.search(text)
    if match is None:
        return None
    return match.group(2), match.group(1).split(" of the ")[::-1]


def _resolve(head: str, relations: list[str], facts: dict) -> tuple[str, int]:
    """Follow the chain as far as the facts go: (entity reached, hops done)."""
    entity = head
    for done, rel in enumerate(relations):
        nxt = facts.get((entity, rel))
        if nxt is None:
            return entity, done
        entity = nxt
    return entity, len(relations)


def reply(prompt: str) -> str:
    """The simulated completion for one prompt."""
    if _GLOBAL in prompt:
        chain = question_chain(prompt[prompt.index(_GLOBAL) :])
        wanted = set(chain[1]) if chain else set()
        kept = [
            fact_sentence(subj, rel, obj)
            for (subj, rel), obj in _facts(prompt).items()
            if rel in wanted
        ]
        return " ".join(kept + ["[DONE]"])
    if _LOCAL in prompt:
        chain = question_chain(prompt)
        if chain and len(chain[1]) == 1:
            obj = _facts(prompt).get((chain[0], chain[1][0]))
            if obj is not None:
                return f"Yes, {obj}"
        return "No"
    if _JUDGE in prompt:
        chain = question_chain(prompt)
        if chain is None:
            return "No"
        _, done = _resolve(chain[0], chain[1], _facts(prompt))
        return "Yes" if done == len(chain[1]) else "No"
    if _PLAN in prompt:
        chain = question_chain(prompt[prompt.index(_PLAN_TARGET) :])
        if chain is None:
            return "What is missing?"
        entity, done = _resolve(chain[0], chain[1], _facts(prompt))
        rel = chain[1][min(done, len(chain[1]) - 1)]
        return f"What is the {rel} of {entity}?"
    if _GENERATE in prompt:
        chain = question_chain(prompt[prompt.rindex(_GENERATE_QUESTION) :])
        if chain is None:
            return UNKNOWN_ANSWER
        entity, done = _resolve(chain[0], chain[1], _facts(prompt))
        return entity if done == len(chain[1]) else UNKNOWN_ANSWER
    raise ValueError(f"simulated LLM: unrecognised prompt: {prompt[:200]!r}")


class SimulatedLLM:
    """Thread-safe ``LlmBackend``; counts calls and prompt tokens per role.

    ``on_call`` (optional) receives (start, end) of each call for tracing.
    """

    backend_id = "simulated"

    def __init__(self, latency_s: float = 0.0, per_token_s: float = 0.0) -> None:
        self.latency_s = latency_s
        self.per_token_s = per_token_s
        self.on_call = None
        self._lock = threading.Lock()
        self.calls: dict[str, int] = {}
        self.prompt_tokens: dict[str, float] = {}

    def complete(self, request: LlmRequest) -> LlmResponse:
        start = time.perf_counter()
        tokens = estimate_tokens(request.prompt)
        text = reply(request.prompt)
        delay = self.latency_s + self.per_token_s * tokens
        if delay > 0:
            time.sleep(max(0.0, delay - (time.perf_counter() - start)))
        with self._lock:
            role = request.role_tag
            self.calls[role] = self.calls.get(role, 0) + 1
            self.prompt_tokens[role] = self.prompt_tokens.get(role, 0.0) + tokens
        end = time.perf_counter()
        if self.on_call is not None:
            self.on_call(start, end)
        return LlmResponse(text=text, backend_id=self.backend_id, latency=end - start)

    def reset_counts(self) -> None:
        with self._lock:
            self.calls.clear()
            self.prompt_tokens.clear()
