"""The three LLM-backed agents: dual-function summarizer, reasoner, generator.

Each agent is prompt assembly over a named-slot template plus strict parsing
of the raw completion surface. The default templates ship as text assets in
``respqa/templates/`` and can be overridden from a directory for prompt
experiments; parsing never raises on arbitrary backend text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, PromptError, PromptTooLargeError
from .llm import BackendRouter, LlmRequest, whitespace_token_estimate
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
# one outside its set is refused when the templates load.
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
    """The five prompt templates, keyed by agent function."""

    judge: str
    plan: str
    global_evidence: str
    local_pathway: str
    generate: str

    @classmethod
    def load_default(cls) -> "PromptTemplateSet":
        base = resources.files("respqa").joinpath("templates")
        return cls(
            **{name: _read_template(base.joinpath(f"{name}.txt"), name) for name in _TEMPLATE_SLOTS}
        )

    @classmethod
    def load_dir(cls, directory: str | Path) -> "PromptTemplateSet":
        """Defaults overridden by any ``<name>.txt`` present in ``directory``."""
        directory = Path(directory)
        defaults = cls.load_default()
        texts = {}
        for name in _TEMPLATE_SLOTS:
            path = directory / f"{name}.txt"
            try:
                texts[name] = _read_template(path, name)
            except FileNotFoundError:
                texts[name] = getattr(defaults, name)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"unreadable template {path}: {exc}") from exc
        return cls(**texts)


def _read_template(path, name: str) -> str:
    """The template's text without its final newline.

    ConfigurationError, naming the file and the slot, if the text uses a
    slot that the agent filling template ``name`` does not bind.
    """
    text = path.read_text("utf-8")
    unknown = sorted(referenced_slots(text).difference(_TEMPLATE_SLOTS[name]))
    if unknown:
        allowed = ", ".join(f"{{{slot}}}" for slot in _TEMPLATE_SLOTS[name])
        raise ConfigurationError(
            f"template {path}: unknown slot {{{unknown[0]}}} (allowed: {allowed})"
        )
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
    max_input_tokens: int | None = None,
) -> str:
    """Byte-deterministic template substitution under the input token cap.

    When ``docs`` is given it fills ``doc_slot`` (documents joined by blank
    lines) and is the only content that may be truncated: whole documents
    are dropped from the lowest rank upward until the estimate fits. All
    other slot content, memory queues included, is never touched; if the
    prompt still exceeds the cap with only the rank-1 document (or with no
    documents at all), PromptTooLargeError reports both sizes.
    """
    if docs is not None and doc_slot in referenced_slots(template):

        def prompt_with(count: int) -> str:
            filled = dict(bindings)
            filled[doc_slot] = "\n\n".join(docs[:count])
            return render_template(template, filled)

        if max_input_tokens is None:
            return prompt_with(len(docs))
        floor = 1 if docs else 0
        floor_estimate = whitespace_token_estimate(prompt_with(floor))
        if floor_estimate > max_input_tokens:
            raise PromptTooLargeError(
                f"prompt estimate {floor_estimate:.0f} tokens exceeds cap "
                f"{max_input_tokens} even with {floor} document(s)",
                estimate=floor_estimate,
                cap=max_input_tokens,
            )
        lo, hi = floor, len(docs)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if whitespace_token_estimate(prompt_with(mid)) <= max_input_tokens:
                lo = mid
            else:
                hi = mid - 1
        return prompt_with(lo)

    prompt = render_template(template, bindings)
    if max_input_tokens is not None:
        estimate = whitespace_token_estimate(prompt)
        if estimate > max_input_tokens:
            raise PromptTooLargeError(
                f"prompt estimate {estimate:.0f} tokens exceeds cap {max_input_tokens} "
                "and contains no truncatable document content",
                estimate=estimate,
                cap=max_input_tokens,
            )
    return prompt


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
    """Total parse: Yes-prefix is sufficient, No-prefix is not, anything
    else is insufficient with the anomaly flag set (conservative: keep
    iterating)."""
    text = raw.strip()
    if _YES_PREFIX.match(text):
        return Judgement(sufficient=True, raw_text=raw)
    if _NO_PREFIX.match(text):
        return Judgement(sufficient=False, raw_text=raw)
    return Judgement(sufficient=False, raw_text=raw, anomaly=True)


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
        for name in ("top_k", "max_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("max_input_tokens", "max_output_tokens"):
            if getattr(self, name) < 1:
                raise ValueError(f"token caps must be >= 1, got {name}={getattr(self, name)}")
        if not 0 <= self.generator_temperature < math.inf:
            raise ValueError(
                "generator_temperature must be finite and >= 0, "
                f"got {self.generator_temperature}"
            )


@dataclass(frozen=True)
class PipelineAgents:
    """Agent frontend: (router, templates, config) in, parsed results out.

    Each method makes at most two LLM calls (plan retry). Every call
    assembles its prompt under the input cap, appends ``(key, prompt)`` to
    ``prompt_log`` if there is one, and goes through the router. The token
    caps and the generator temperature come from ``config``; the reasoner and
    summarizer always run at 0.0. Agents without a log are safe to share
    across threads; a run gives its own copy a fresh log.
    """

    router: BackendRouter
    templates: PromptTemplateSet = field(default_factory=PromptTemplateSet.load_default)
    config: PipelineConfig = field(default_factory=PipelineConfig)
    prompt_log: list[tuple[str, str]] | None = field(default=None, compare=False)

    def _call(
        self, key: str, role_tag: str, template: str, bindings: dict[str, str],
        docs: list[str] | None = None, doc_slot: str = SLOT_DOCS,
    ) -> str:
        prompt = assemble_prompt(
            template,
            bindings,
            docs=docs,
            doc_slot=doc_slot,
            max_input_tokens=self.config.max_input_tokens,
        )
        if self.prompt_log is not None:
            self.prompt_log.append((key, prompt))
        request = LlmRequest(
            prompt=prompt,
            max_output_tokens=self.config.max_output_tokens,
            temperature=self.config.generator_temperature if role_tag == "generator" else 0.0,
            role_tag=role_tag,
        )
        return self.router.complete(request).text

    def summarize_global(self, docs: list[RetrievedDocument], overarching_question: str) -> str:
        """Summary of support for the overarching question found in ``docs``."""
        if not docs:
            raise ValueError("summarize_global requires at least one retrieved document")
        raw = self._call(
            "global_summary",
            "summarizer",
            self.templates.global_evidence,
            {SLOT_OVERARCHING: overarching_question},
            docs=render_docs(docs),
        )
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
            "judge",
            "reasoner",
            self.templates.judge,
            {SLOT_OVERARCHING: overarching_question, SLOT_MEMORY: memory.render_combined()},
        )
        return parse_judgement(raw)

    def plan(self, overarching_question: str, memory: MemoryState, forbidden: set[str]) -> PlanResult:
        """Next sub-question, guaranteed not to normalize into ``forbidden``
        unless forced_termination is set.

        A duplicate (or empty) first attempt triggers one retry with the
        forbidden list spelled out; a second duplicate forces termination.
        """
        bindings = {SLOT_OVERARCHING: overarching_question, SLOT_MEMORY: memory.render_combined()}
        question = parse_plan_surface(self._call("plan", "reasoner", self.templates.plan, bindings))
        normalized = normalize_question(question)
        if normalized and normalized not in forbidden:
            return PlanResult(sub_question=question, attempts=1, forced_termination=False)

        raw = self._call(
            "plan_retry",
            "reasoner",
            self.templates.plan + "\nDo not repeat any of these questions: {Forbidden questions}",
            {**bindings, "Forbidden questions": "; ".join(sorted(forbidden))},
        )
        question = parse_plan_surface(raw)
        normalized = normalize_question(question)
        forced = not normalized or normalized in forbidden
        return PlanResult(sub_question=question, attempts=2, forced_termination=forced)

    def generate(self, overarching_question: str, memory: MemoryState) -> str:
        """Final answer from the memory queues, trimmed."""
        return self._call(
            "generate",
            "generator",
            self.templates.generate,
            {SLOT_OVERARCHING: overarching_question, SLOT_MEMORY: memory.render_combined()},
        ).strip()

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
