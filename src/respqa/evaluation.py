"""QA dataset loading, token-level F1 / exact match, and batch reports.

Datasets follow the JSONL convention with keys ``id``, ``question``,
``golden_answers``. Scoring normalizes both sides (lowercase, drop the
articles a/an/the, strip punctuation and ASCII symbols, collapse
whitespace), then takes the best score over the gold answers.
"""

from __future__ import annotations

import logging
import re
import string
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DatasetError, RespqaError
from .jsonl import read_jsonl
from .retrieval import strip_punctuation

if TYPE_CHECKING:
    from .pipeline import RunTrace

logger = logging.getLogger(__name__)

_ARTICLES = re.compile(r"\b(a|an|the)\b")
# The official scorers strip string.punctuation, whose $+<=>^`|~ are not in Unicode category P.
_ASCII_PUNCTUATION = str.maketrans("", "", string.punctuation)
# HotpotQA's official scorer gives a bare yes, no or noanswer F1 only against itself.
_BARE_ANSWERS = frozenset({"yes", "no", "noanswer"})


@dataclass(frozen=True)
class QAExample:
    """One dataset row: a question with at least one gold answer."""

    example_id: str
    question: str
    golden_answers: tuple[str, ...]


def load_dataset(path: str | Path, limit: int | None = None) -> list[QAExample]:
    """First ``limit`` examples (file order) from a JSONL dataset.

    A row's ``id`` must be a non-empty string that no earlier row holds. No
    id, question or gold answer may hold a lone surrogate (a JSON ``\\ud800``
    escape), which UTF-8 cannot encode. Malformed rows raise DatasetError
    naming the line number.
    """
    examples: list[QAExample] = []
    seen: set[str] = set()
    rows = read_jsonl(path, DatasetError, ("id", "question", "golden_answers"))
    for where, (example_id, question, golds) in islice(rows, limit):
        if not isinstance(example_id, str) or not example_id:
            raise DatasetError(f"{where}: 'id' must be a non-empty string")
        if example_id in seen:
            raise DatasetError(f"{where}: duplicate id {example_id!r}")
        seen.add(example_id)
        if not isinstance(question, str) or not question.strip():
            raise DatasetError(f"{where}: 'question' must be non-empty")
        if (
            not isinstance(golds, list)
            or not golds
            or not all(isinstance(g, str) for g in golds)
        ):
            raise DatasetError(f"{where}: 'golden_answers' must be a non-empty list of strings")
        examples.append(QAExample(example_id, question, tuple(golds)))
    return examples


def normalize_answer(text: str) -> str:
    """SQuAD's order: lowercase, strip punctuation (Unicode category P and
    ASCII's), drop whole-word articles, collapse spaces."""
    text = strip_punctuation(text.lower()).translate(_ASCII_PUNCTUATION)
    return " ".join(_ARTICLES.sub(" ", text).split())


def _f1_single(prediction: str, gold: str) -> float:
    prediction, gold = normalize_answer(prediction), normalize_answer(gold)
    if prediction != gold and (prediction in _BARE_ANSWERS or gold in _BARE_ANSWERS):
        return 0.0
    # normalize_answer's words are already tokens: lowercase, no punctuation.
    pred_tokens = prediction.split()
    gold_tokens = gold.split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(prediction: str, golds: Sequence[str]) -> float:
    """Best token-level F1 of the prediction against any gold answer."""
    if not golds:
        raise ValueError("golds must be non-empty")
    return max(_f1_single(prediction, gold) for gold in golds)


def exact_match(prediction: str, golds: Sequence[str]) -> float:
    """1.0 when the normalized prediction equals any normalized gold."""
    if not golds:
        raise ValueError("golds must be non-empty")
    normalized = normalize_answer(prediction)
    return 1.0 if any(normalized == normalize_answer(gold) for gold in golds) else 0.0


@dataclass(frozen=True)
class ExampleResult:
    """One row of ``eval_examples.jsonl``. Each field is written under its own
    name and in field order, except ``example_id``, which is written as ``id``.
    A failed row is the defaults plus ``error``."""

    example_id: str
    question: str
    prediction: str = ""
    f1: float = 0.0
    em: float = 0.0
    rounds: int = 0
    stop_reason: str | None = None
    generator_prompt_tokens: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        row = asdict(self)
        return {"id": row.pop("example_id"), **row}


@dataclass(frozen=True)
class EvalReport:
    """Aggregates over a batch; means cover all n examples for f1/em, and
    completed runs only for rounds and prompt size."""

    n: int
    mean_f1: float
    mean_em: float
    mean_rounds: float
    mean_prompt_tokens: float
    stop_reasons: dict[str, int]
    errors: int
    rows: list[ExampleResult]

    def summary_dict(self) -> dict:
        return {
            "n": self.n,
            "mean_f1": self.mean_f1,
            "mean_f1_x100": self.mean_f1 * 100.0,
            "mean_em": self.mean_em,
            "mean_em_x100": self.mean_em * 100.0,
            "mean_rounds": self.mean_rounds,
            "mean_generator_prompt_tokens": self.mean_prompt_tokens,
            "stop_reasons": self.stop_reasons,
            "errors": self.errors,
        }


def evaluate(
    run_fn: Callable[[str], "RunTrace"],
    examples: Sequence[QAExample],
    parallelism: int = 1,
) -> EvalReport:
    """Run the pipeline on every example and score the final answers.

    A failed run scores 0 and is counted in ``errors``; the batch always
    completes. An exception that is not a package error also has its
    traceback logged once at ERROR. Row order follows dataset order
    regardless of parallelism, so identical inputs produce identical reports.
    """

    def run_one(example: QAExample) -> ExampleResult:
        try:
            trace = run_fn(example.question)
        except Exception as exc:  # per-run failures must not sink the batch
            if not isinstance(exc, RespqaError):
                logger.exception("example %r failed", example.example_id)
            return ExampleResult(example.example_id, example.question, error=_describe(exc))
        return ExampleResult(
            example_id=example.example_id,
            question=example.question,
            prediction=trace.final_answer,
            f1=token_f1(trace.final_answer, example.golden_answers),
            em=exact_match(trace.final_answer, example.golden_answers),
            rounds=len(trace.iterations),
            stop_reason=trace.stop_reason,
            generator_prompt_tokens=trace.generator_prompt_tokens,
        )

    # At parallelism 1 the questions run in the caller's thread, so Ctrl-C
    # stops the batch at once. A pool's ``with`` exit would first wait for the
    # question that is running, which on an HTTP backend can mean minutes of
    # retries.
    if parallelism > 1 and len(examples) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(run_one, examples))
    else:
        rows = [run_one(example) for example in examples]

    n = len(rows)
    completed = [row for row in rows if row.error is None]
    return EvalReport(
        n=n,
        mean_f1=sum(row.f1 for row in rows) / n if n else 0.0,
        mean_em=sum(row.em for row in rows) / n if n else 0.0,
        mean_rounds=sum(row.rounds for row in completed) / len(completed) if completed else 0.0,
        mean_prompt_tokens=(
            sum(r.generator_prompt_tokens for r in completed) / len(completed) if completed else 0.0
        ),
        stop_reasons=Counter(row.stop_reason for row in completed),
        errors=n - len(completed),
        rows=rows,
    )


def _describe(exc: Exception) -> str:
    """A failed row's error: the exception's message, led by its type name
    where the message alone names nothing (empty, as a bare
    ``ZeroDivisionError()``'s, or only its argument's repr, as a
    ``KeyError``'s). A package error's message is kept as it is."""
    message = str(exc)
    if isinstance(exc, RespqaError) or (message and [message] != list(map(repr, exc.args))):
        return message
    return f"{type(exc).__name__}: {message}" if message else type(exc).__name__

