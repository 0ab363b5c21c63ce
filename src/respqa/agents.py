"""The three LLM-backed agents: dual-function summarizer, reasoner, generator.

Each agent is prompt assembly over a named-slot template plus strict parsing
of the raw completion surface. The default templates ship as text assets in
``respqa/templates/`` and can be overridden from a directory for prompt
experiments; parsing never raises on arbitrary backend text.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, PromptError, PromptTooLargeError
from .llm import BackendRouter, LlmRequest, LlmResponse, whitespace_token_estimate
from .memory import NO_ANSWER_MARKER, MemoryState, normalize_question
from .retrieval import RetrievedDocument

# Slot names used by the shipped templates.
SLOT_OVERARCHING = "Overarching question"
SLOT_SUB_QUESTION = "Sub-question"
SLOT_MEMORY = "Combined memory queues"
SLOT_DOCS = "docs"

DONE_MARKER = "[DONE]"
NO_INFO_SENTINEL = "No relevant information found."

# The slots each template's agent binds. A template may leave a slot out;
# one outside its set is refused when the template set is built.
_TEMPLATE_SLOTS = {
    "judge": (SLOT_OVERARCHING, SLOT_MEMORY),
    "plan": (SLOT_OVERARCHING, SLOT_MEMORY),
    "global_evidence": (SLOT_OVERARCHING, SLOT_DOCS),
    "local_pathway": (SLOT_SUB_QUESTION, SLOT_MEMORY),
    "generate": (SLOT_OVERARCHING, SLOT_MEMORY),
}
_SLOT = re.compile(r"\{([^{}]+)\}")
_YES_PREFIX = re.compile(r"^yes\b", re.IGNORECASE)
_NO_PREFIX = re.compile(r"^no\b", re.IGNORECASE)
_PLAN_PREFIX = re.compile(r"^(?:thought|question)\s*:\s*", re.IGNORECASE)
_ANSWER_SEPARATORS = " \t\r\n,.:;-"


@dataclass(frozen=True)
class PromptTemplateSet:
    """The five prompt templates, keyed by agent function.

    ConfigurationError, naming the template, if a template is empty or uses
    a slot that its agent does not bind (naming the slot too).
    """

    judge: str
    plan: str
    global_evidence: str
    local_pathway: str
    generate: str

    def __post_init__(self) -> None:
        for name, allowed in _TEMPLATE_SLOTS.items():
            template = getattr(self, name)
            if not template:
                raise ConfigurationError(f"template {name!r} is empty")
            unknown = sorted(referenced_slots(template).difference(allowed))
            if unknown:
                slots = ", ".join(f"{{{slot}}}" for slot in allowed)
                raise ConfigurationError(
                    f"template {name!r}: unknown slot {{{unknown[0]}}} (allowed: {slots})"
                )

    @classmethod
    def load_default(cls) -> "PromptTemplateSet":
        base = resources.files("respqa").joinpath("templates")
        return cls(
            **{name: _read_template(base.joinpath(f"{name}.txt")) for name in _TEMPLATE_SLOTS}
        )

    @classmethod
    def load_dir(cls, directory: str | Path) -> "PromptTemplateSet":
        """Defaults overridden by any ``<name>.txt`` present in ``directory``."""
        templates = cls.load_default()
        for name in _TEMPLATE_SLOTS:
            path = Path(directory) / f"{name}.txt"
            try:
                templates = replace(templates, **{name: _read_template(path)})
            except FileNotFoundError:
                pass
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"unreadable template {path}: {exc}") from exc
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}: {exc}") from exc
        return templates


def _read_template(path) -> str:
    """The template's text without its final newline."""
    text = path.read_text("utf-8")
    return text[:-1] if text.endswith("\n") else text


def referenced_slots(template: str) -> set[str]:
    return {match.group(1) for match in _SLOT.finditer(template)}


def render_template(template: str, bindings: dict[str, str]) -> str:
    """Substitute every ``{slot}`` in one pass; an unbound slot is an error."""

    def _fill(match: re.Match) -> str:
        name = match.group(1)
        if name not in bindings:
            raise PromptError(f"unbound template slot: {name!r}")
        return bindings[name]

    return _SLOT.sub(_fill, template)


def render_docs(hits: list[RetrievedDocument]) -> list[str]:
    """Per-document prompt text: title then passage."""
    return [f"{hit.title}\n{hit.text}" for hit in hits]


def assemble_prompt(
    template: str,
    bindings: dict[str, str],
    *,
    docs: list[str] | None = None,
    doc_slot: str = SLOT_DOCS,
    max_input_tokens: int,
) -> str:
    """Byte-deterministic template substitution under the input token cap.

    When ``docs`` is given it fills ``doc_slot`` (documents joined by blank
    lines) and is the only content that may be truncated: whole documents
    are dropped from the lowest rank upward until the estimate fits. All
    other slot content, memory queues included, is never touched; if the
    prompt still exceeds the cap with only the rank-1 document (or with no
    documents at all), PromptTooLargeError reports both sizes. A template
    without ``doc_slot``, or a call without ``docs``, has no documents.
    """
    return _fit(template, bindings, docs, doc_slot, max_input_tokens)[0]


def _fit(template, bindings, docs, doc_slot, max_input_tokens) -> tuple[str, int]:
    """``assemble_prompt``'s prompt and how many of ``docs`` it carries."""
    truncatable = docs is not None and doc_slot in referenced_slots(template)
    docs = docs if truncatable else []

    def prompt_with(count: int) -> str:
        filled = {**bindings, doc_slot: "\n\n".join(docs[:count])} if truncatable else bindings
        return render_template(template, filled)

    prompt = prompt_with(len(docs))
    if whitespace_token_estimate(prompt) <= max_input_tokens:
        return prompt, len(docs)
    floor = min(1, len(docs))
    estimate = whitespace_token_estimate(prompt_with(floor))
    if estimate > max_input_tokens:
        raise PromptTooLargeError(
            f"prompt estimate {estimate:.0f} tokens exceeds cap "
            f"{max_input_tokens} even with {floor} document(s)",
            estimate=estimate,
            cap=max_input_tokens,
        )
    # The estimate never shrinks as documents are added, so the counts that fit are a prefix.
    count = floor + bisect_right(
        range(floor + 1, len(docs)),
        max_input_tokens,
        key=lambda n: whitespace_token_estimate(prompt_with(n)),
    )
    return prompt_with(count), count


@dataclass(frozen=True)
class Judgement:
    """Reasoner verdict on whether the memory suffices to answer."""

    sufficient: bool
    raw_text: str
    anomaly: bool = False


@dataclass(frozen=True)
class LocalAnswer:
    """Summarizer response to the current sub-question."""

    answered: bool
    answer: str
    anomaly: bool = False
    raw_text: str = ""


@dataclass(frozen=True)
class PlanResult:
    """Next sub-question from the reasoner, with duplicate-retry bookkeeping."""

    sub_question: str
    attempts: int
    forced_termination: bool


def parse_global_summary(raw: str) -> str:
    """Trimmed summary with a trailing done-marker removed.

    An empty surface (or a bare marker) becomes the no-information sentinel,
    which is always a pushable summary.
    """
    text = raw.strip()
    if text.endswith(DONE_MARKER):
        text = text[: -len(DONE_MARKER)].rstrip()
    return text if text else NO_INFO_SENTINEL


def parse_judgement(raw: str) -> Judgement:
    """Total parse by the local pathway's Yes/No rule: a Yes-prefix is
    sufficient, anything else is not, and a reply with neither prefix is an
    anomaly (conservative: keep iterating)."""
    local = parse_local_answer(raw)
    return Judgement(sufficient=local.answered, raw_text=raw, anomaly=local.anomaly)


def parse_local_answer(raw: str) -> LocalAnswer:
    """Total parse of the local-pathway surface.

    A Yes-prefix yields the text after the marker (separators trimmed); a
    No-prefix, or anything unparseable, yields the fixed no-answer marker.
    """
    text = raw.strip()
    match = _YES_PREFIX.match(text)
    if match:
        answer = text[match.end() :].lstrip(_ANSWER_SEPARATORS).strip()
        return LocalAnswer(answered=True, answer=answer, raw_text=raw)
    if _NO_PREFIX.match(text):
        return LocalAnswer(answered=False, answer=NO_ANSWER_MARKER, raw_text=raw)
    return LocalAnswer(answered=False, answer=NO_ANSWER_MARKER, anomaly=True, raw_text=raw)


def parse_plan_surface(raw: str) -> str:
    """Strip any leading "Thought:"/"Question:" prefixes from a plan reply."""
    text = raw.strip()
    while True:
        match = _PLAN_PREFIX.match(text)
        if not match:
            return text
        text = text[match.end() :].strip()


@dataclass
class PipelineConfig:
    """Loop parameters, token caps, generator temperature and prompt logging."""

    top_k: int = 5
    max_iterations: int = 3
    max_input_tokens: int = 12_000
    max_output_tokens: int = 200
    generator_temperature: float = 0.0
    log_prompts: bool = False

    def __post_init__(self) -> None:
        for name in ("top_k", "max_iterations", "max_input_tokens", "max_output_tokens"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0 <= self.generator_temperature < math.inf:
            raise ValueError(
                "generator_temperature must be finite and >= 0, "
                f"got {self.generator_temperature}"
            )


@dataclass(frozen=True)
class AgentCall:
    """An agent's request, its prompt-log key, and its reply if it was started."""

    key: str
    request: LlmRequest
    reply: Future[LlmResponse] | None


@dataclass(frozen=True)
class PipelineAgents:
    """Agent frontend: (router, templates, config) in, parsed results out.

    Each method makes at most two LLM calls (plan retry). Every call goes one
    way: ``_start`` assembles its prompt under the input cap and builds the
    request, and ``_take`` appends ``(key, prompt)`` to ``prompt_log`` if
    there is one, then returns the reply. The token caps and the generator
    temperature come from ``config``; the reasoner and summarizer always run
    at 0.0. ``start_generate`` starts the generate call ahead, on a helper
    thread, so a caller can have it in flight while it makes another call;
    ``generate`` then takes its reply. Agents without a log are safe to share
    across threads; a run gives its own copy a fresh log.
    """

    router: BackendRouter
    templates: PromptTemplateSet = field(default_factory=PromptTemplateSet.load_default)
    config: PipelineConfig = field(default_factory=PipelineConfig)
    prompt_log: list[tuple[str, str]] | None = field(default=None, compare=False)

    def _start(
        self, key: str, role_tag: str, template: str, bindings: dict[str, str],
        docs: list[str] | None = None, doc_slot: str = SLOT_DOCS, ahead: bool = False,
    ) -> AgentCall:
        """The call, its prompt assembled under the input cap; with ``ahead``,
        started now if the router starts it (``BackendRouter.start``)."""
        prompt = assemble_prompt(
            template, bindings, docs=docs, doc_slot=doc_slot,
            max_input_tokens=self.config.max_input_tokens,
        )
        temperature = self.config.generator_temperature if role_tag == "generator" else 0.0
        request = LlmRequest(prompt, self.config.max_output_tokens, temperature, role_tag)
        return AgentCall(key, request, self.router.start(request) if ahead else None)

    def _take(self, call: AgentCall) -> str:
        """The call's reply text, its prompt logged first; sent from here if not begun."""
        if self.prompt_log is not None:
            self.prompt_log.append((call.key, call.request.prompt))
        if call.reply is None or call.reply.cancel():
            return self.router.complete(call.request).text
        return call.reply.result().text

    def _call(
        self, key: str, role_tag: str, template: str, bindings: dict[str, str],
        docs: list[str] | None = None, doc_slot: str = SLOT_DOCS,
    ) -> str:
        return self._take(self._start(key, role_tag, template, bindings, docs, doc_slot))

    def summarize_global(
        self, docs: list[RetrievedDocument], overarching_question: str, summarized: set[str] | None = None
    ) -> str:
        """Summary of support for the overarching question found in ``docs``; with
        no documents, the no-information sentinel, and no call is made. The prompt
        offers only the docs whose ids are not in ``summarized`` (those an earlier
        prompt carried), or all of them when none is new or the first new one alone
        overflows the input cap; the ids of the new docs it carries join the set."""
        if not docs:
            return NO_INFO_SENTINEL
        template, bindings = self.templates.global_evidence, {SLOT_OVERARCHING: overarching_question}
        summarized = set() if summarized is None else summarized
        new = [doc for doc in docs if doc.doc_id not in summarized]
        try:
            kept = _fit(template, bindings, render_docs(new), SLOT_DOCS, self.config.max_input_tokens)[1]
        except PromptTooLargeError:
            kept = 0
        summarized.update(doc.doc_id for doc in new[:kept])
        offered = render_docs(new if kept else docs)
        raw = self._call("global_summary", "summarizer", template, bindings, offered)
        return parse_global_summary(raw)

    def answer_local(self, sub_question: str, memory: MemoryState) -> LocalAnswer:
        """Answer the current sub-question from the combined memory queues.

        The caller must have pushed this round's global summary first; the
        retrieved content reaches this prompt only through memory.
        """
        raw = self._call(
            "local_answer",
            "summarizer",
            self.templates.local_pathway,
            {SLOT_SUB_QUESTION: sub_question, SLOT_MEMORY: memory.render_combined()},
        )
        return parse_local_answer(raw)

    def judge(self, overarching_question: str, memory: MemoryState) -> Judgement:
        """Is the accumulated memory sufficient to answer the question?"""
        if not memory.global_evidence:
            raise ValueError("judge requires at least one global evidence entry")
        raw = self._call(
            "judge", "reasoner", self.templates.judge, _memory_bindings(overarching_question, memory)
        )
        return parse_judgement(raw)

    def plan(self, overarching_question: str, memory: MemoryState) -> PlanResult:
        """Next sub-question, guaranteed not to normalize into one already
        retrieved (``memory.seen_subquestions``) unless forced_termination is set.

        A duplicate (or empty) first attempt triggers one retry with the
        forbidden list spelled out; a second duplicate forces termination.
        """
        forbidden = memory.seen_subquestions(overarching_question)
        bindings = _memory_bindings(overarching_question, memory)
        retry = self.templates.plan + "\nDo not repeat any of these questions: {Forbidden questions}"
        calls = [
            ("plan", self.templates.plan, bindings),
            ("plan_retry", retry, {**bindings, "Forbidden questions": "; ".join(sorted(forbidden))}),
        ]
        for attempts, (key, template, slots) in enumerate(calls, 1):
            question = parse_plan_surface(self._call(key, "reasoner", template, slots))
            normalized = normalize_question(question)
            if normalized and normalized not in forbidden:
                return PlanResult(question, attempts, forced_termination=False)
        return PlanResult(question, attempts, forced_termination=True)

    def start_generate(self, overarching_question: str, memory: MemoryState) -> AgentCall | None:
        """``generate``'s call over this memory, started now if the router starts
        it. Never raises: None when the prompt does not assemble (``generate``
        then raises the error), and a reply of None when the call was not started.
        """
        try:
            return self._generate_call(overarching_question, memory, ahead=True)
        except PromptError:
            return None

    def generate(
        self, overarching_question: str, memory: MemoryState, early: AgentCall | None = None
    ) -> str:
        """Final answer from the memory queues, trimmed.

        With ``early`` from ``start_generate``, takes that call in place of a new
        one: its reply if it was started and has begun, else it is sent from here.
        """
        return self._take(early or self._generate_call(overarching_question, memory)).strip()

    def _generate_call(self, question: str, memory: MemoryState, ahead: bool = False) -> AgentCall:
        bindings = _memory_bindings(question, memory)
        return self._start("generate", "generator", self.templates.generate, bindings, ahead=ahead)

    def generate_standard(self, overarching_question: str, docs: list[RetrievedDocument]) -> str:
        """Single-shot baseline: trimmed answer from the raw documents."""
        # The reference slot of the generation template carries raw documents
        # here, so it is doc-wise truncatable, unlike memory content.
        return self._call(
            "generate",
            "generator",
            self.templates.generate,
            {SLOT_OVERARCHING: overarching_question},
            docs=render_docs(docs),
            doc_slot=SLOT_MEMORY,
        ).strip()


def _memory_bindings(overarching_question: str, memory: MemoryState) -> dict[str, str]:
    """The slots of the judge, plan and generate templates."""
    return {SLOT_OVERARCHING: overarching_question, SLOT_MEMORY: memory.render_combined()}
