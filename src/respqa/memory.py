"""The two append-only memory queues and their deterministic rendering.

``MemoryState`` tracks one question's run: summaries supporting the
overarching question (global evidence) and per-round (sub-question, answer)
pairs (the local retrieval pathway). Round 0 never contributes a local
entry, so after round r the queues hold r+1 and r entries respectively.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
    while collapsed and (collapsed[-1] == " " or is_punctuation_char(collapsed[-1])):
        collapsed = collapsed[:-1]
    return collapsed


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


class MemoryState:
    """Append-only queues; one instance per question run, mutated single-threaded."""

    def __init__(self) -> None:
        self._global: list[GlobalEvidenceEntry] = []
        self._local: list[LocalPathwayEntry] = []

    @property
    def global_evidence(self) -> tuple[GlobalEvidenceEntry, ...]:
        return tuple(self._global)

    @property
    def local_pathway(self) -> tuple[LocalPathwayEntry, ...]:
        return tuple(self._local)

    def push_global(self, round_index: int, summary_text: str) -> None:
        """Append a round's evidence summary; rounds must arrive as 0, 1, 2, ...

        An empty (after trimming) summary is an error: the summarizer layer
        is responsible for substituting its no-information sentinel.
        """
        text = summary_text.strip()
        if not text:
            raise ValueError("global evidence summary must be non-empty")
        if round_index != len(self._global):
            raise ValueError(
                f"global evidence rounds must be contiguous: expected "
                f"{len(self._global)}, got {round_index}"
            )
        self._global.append(GlobalEvidenceEntry(round=round_index, text=text))

    def push_local(self, round_index: int, sub_question: str, answer: str, answered: bool) -> None:
        """Append a (sub-question, answer) pair; round 0 is bypassed by design."""
        if round_index < 1:
            raise ValueError("round 0 has no local pathway entry")
        if round_index != len(self._local) + 1:
            raise ValueError(
                f"local pathway rounds must be contiguous: expected "
                f"{len(self._local) + 1}, got {round_index}"
            )
        if not sub_question.strip():
            raise ValueError("sub_question must be non-empty")
        if not answered and answer != NO_ANSWER_MARKER:
            raise ValueError(
                f"unanswered entries must carry the marker {NO_ANSWER_MARKER!r}, got {answer!r}"
            )
        self._local.append(
            LocalPathwayEntry(
                round=round_index, sub_question=sub_question, answer=answer, answered=answered
            )
        )

    def render_combined(self) -> str:
        """Deterministic text form of both queues, used verbatim in prompts.

        Never truncated anywhere in the pipeline.
        """
        lines = [_GLOBAL_HEADER]
        if self._global:
            lines.extend(entry.text for entry in self._global)
        else:
            lines.append(_EMPTY_SECTION)
        lines.append(_HISTORY_HEADER)
        if self._local:
            lines.extend(f"Q: {entry.sub_question} A: {entry.answer}" for entry in self._local)
        else:
            lines.append(_EMPTY_SECTION)
        return "\n".join(lines)

    def seen_subquestions(self, overarching_question: str | None = None) -> set[str]:
        """Normalized forms of every sub-question retrieved so far.

        The overarching question, when given, is included: it was the
        round-0 retrieval query.
        """
        seen = {normalize_question(entry.sub_question) for entry in self._local}
        if overarching_question is not None:
            seen.add(normalize_question(overarching_question))
        return seen

    def to_dict(self) -> dict:
        return {
            "global_evidence": [asdict(entry) for entry in self._global],
            "local_pathway": [asdict(entry) for entry in self._local],
        }
