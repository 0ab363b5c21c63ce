"""The two append-only memory queues and their deterministic rendering.

``MemoryState`` tracks one question's run: summaries supporting the
overarching question (global evidence) and per-round (sub-question, answer)
pairs (the local retrieval pathway). Round 0 never contributes a local
entry, so after round r the queues hold r+1 and r entries respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .retrieval import is_punctuation_char

NO_ANSWER_MARKER = "no answer found"

_GLOBAL_HEADER = "Global evidence:"
_HISTORY_HEADER = "Retrieval history:"
_EMPTY_SECTION = "(none)"


def normalize_question(text: str) -> str:
    """Canonical form for sub-question equality checks.

    Lowercases, collapses whitespace, and strips the trailing run of
    punctuation and spaces, so "Who is X?", "Who is X ? !" and "who is x"
    compare equal. Deliberately string-level: paraphrase duplicates are out
    of scope.
    """
    collapsed = " ".join(text.split()).lower()
    end = len(collapsed)
    while end and (collapsed[end - 1] == " " or is_punctuation_char(collapsed[end - 1])):
        end -= 1
    return collapsed[:end]


@dataclass(frozen=True)
class GlobalEvidenceEntry:
    round: int
    text: str


@dataclass(frozen=True)
class LocalPathwayEntry:
    round: int
    sub_question: str
    answer: str
    answered: bool


@dataclass(eq=False)
class MemoryState:
    """The paper's two append-only queues for one question run, mutated
    single-threaded. The pushes are the only way in, so every entry passes
    their checks; instances compare by identity."""

    global_evidence: tuple[GlobalEvidenceEntry, ...] = field(default=(), init=False)
    local_pathway: tuple[LocalPathwayEntry, ...] = field(default=(), init=False)

    def push_global(self, round_index: int, summary_text: str) -> None:
        """Append a round's evidence summary; rounds must arrive as 0, 1, 2, ...

        An empty (after trimming) summary is an error: the summarizer layer
        is responsible for substituting its no-information sentinel.
        """
        text = summary_text.strip()
        if not text:
            raise ValueError("global evidence summary must be non-empty")
        if round_index != len(self.global_evidence):
            raise ValueError(
                f"global evidence rounds must be contiguous: expected "
                f"{len(self.global_evidence)}, got {round_index}"
            )
        self.global_evidence += (GlobalEvidenceEntry(round=round_index, text=text),)

    def push_local(self, round_index: int, sub_question: str, answer: str, answered: bool) -> None:
        """Append a (sub-question, answer) pair; round 0 is bypassed by design."""
        if round_index < 1:
            raise ValueError("round 0 has no local pathway entry")
        if round_index != len(self.local_pathway) + 1:
            raise ValueError(
                f"local pathway rounds must be contiguous: expected "
                f"{len(self.local_pathway) + 1}, got {round_index}"
            )
        if not sub_question.strip():
            raise ValueError("sub_question must be non-empty")
        if not answered and answer != NO_ANSWER_MARKER:
            raise ValueError(
                f"unanswered entries must carry the marker {NO_ANSWER_MARKER!r}, got {answer!r}"
            )
        self.local_pathway += (
            LocalPathwayEntry(
                round=round_index, sub_question=sub_question, answer=answer, answered=answered
            ),
        )

    def render_combined(self) -> str:
        """Deterministic text form of both queues, used verbatim in prompts.

        Never truncated anywhere in the pipeline.
        """
        lines = [_GLOBAL_HEADER]
        if self.global_evidence:
            lines.extend(entry.text for entry in self.global_evidence)
        else:
            lines.append(_EMPTY_SECTION)
        lines.append(_HISTORY_HEADER)
        if self.local_pathway:
            lines.extend(f"Q: {e.sub_question} A: {e.answer}" for e in self.local_pathway)
        else:
            lines.append(_EMPTY_SECTION)
        return "\n".join(lines)

    def seen_subquestions(self, overarching_question: str | None = None) -> set[str]:
        """Normalized forms of every sub-question retrieved so far.

        The overarching question, when given, is included: it was the
        round-0 retrieval query.
        """
        seen = {normalize_question(entry.sub_question) for entry in self.local_pathway}
        if overarching_question is not None:
            seen.add(normalize_question(overarching_question))
        return seen
