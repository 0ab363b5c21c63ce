"""In-memory span recorder and the instrumentation of the package's layers.

A span is (id, parent, name, start, end, question id, attrs). Spans nest
per thread; the layer of a span is its name up to the first dot. The
package is instrumented from outside: ``instrument`` swaps the public
functions and methods named in ``_TARGETS`` for timing wrappers and puts
the originals back on exit. Nothing here runs unless a traced run asks.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path

import respqa.agents
import respqa.cli
import respqa.config
import respqa.evaluation
import respqa.llm
import respqa.memory
import respqa.retrieval

_clock = time.perf_counter


class Tracer:
    """Collects spans from any number of threads; each thread nests its own."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, qid, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def qid(self) -> str | None:
        return getattr(self._local, "qid", None)

    @qid.setter
    def qid(self, value: str | None) -> None:
        self._local.qid = value

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = _clock()
        try:
            yield attrs
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.qid, attrs))

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        """A finished child of the current span (for work timed elsewhere)."""
        stack = self._stack()
        self.spans.append(
            (next(self._ids), stack[-1] if stack else 0, name, start, end, self.qid, attrs)
        )

    def wrap(self, fn, name: str, attrs_of=None):
        tracer = self

        def traced(*args, **kwargs):
            attrs = {} if attrs_of else None
            with tracer.span(name, attrs):
                result = fn(*args, **kwargs)
            if attrs_of:
                attrs.update(attrs_of(args, kwargs, result))
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, qid, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start,
                         "end": end, "qid": qid, "attrs": attrs}
                    )
                    + "\n"
                )


def _retrieve_attrs(args, kwargs, result):
    k = kwargs["k"] if "k" in kwargs else args[2]
    return {"k": k, "hits": len(result)}


def _router_attrs(args, kwargs, result):
    request = args[1]
    return {"role": request.role_tag}


def _plan_attrs(args, kwargs, result):
    return {"attempts": result.attempts}


def _assemble_attrs(args, kwargs, result):
    docs = kwargs.get("docs")
    if not docs:
        return {}
    kept, pos = 0, 0
    for doc in docs:
        found = result.find(doc, pos)
        if found < 0:
            break
        kept, pos = kept + 1, found + len(doc)
    return {"offered": len(docs), "kept": kept}


AGENT_METHODS = (
    "summarize_global", "answer_local", "judge", "plan", "generate", "generate_standard",
    "render_generate_prompt", "render_standard_prompt",
)

# (owner, attribute, span name, attrs function); owners are classes or modules.
# A target the package no longer has is skipped; the traced run then fails
# if a layer the workload goes through recorded no span.
_TARGETS = [
    (respqa.retrieval.BM25Index, "retrieve", "retrieval.bm25_retrieve", _retrieve_attrs),
    (respqa.retrieval.BM25Index, "build", "retrieval.build", None),
    (respqa.retrieval.BM25Index, "save", "retrieval.save", None),
    (respqa.retrieval.BM25Index, "open", "retrieval.open", None),
    (respqa.retrieval, "tokenize", "retrieval.tokenize", None),
    (respqa.retrieval.EmbeddingRetriever, "retrieve", "retrieval.dense_retrieve", _retrieve_attrs),
    (respqa.llm.BackendRouter, "complete", "llm.router", _router_attrs),
    (respqa.config.AppRuntime, "fresh_bindings", "config.fresh_bindings", None),
    (respqa.agents, "assemble_prompt", "agents.assemble_prompt", _assemble_attrs),
    (respqa.memory.MemoryState, "render_combined", "memory.render", None),
    (respqa.config, "run_resp", "pipeline.run_resp", None),
    (respqa.config, "run_standard_rag", "pipeline.run_standard_rag", None),
    (respqa.evaluation, "token_f1", "evaluation.score", None),
    (respqa.evaluation, "exact_match", "evaluation.score", None),
] + [
    (respqa.agents.PipelineAgents, m, f"agents.{m}", _plan_attrs if m == "plan" else None)
    for m in AGENT_METHODS
]


def _timed_corpus(tracer: Tracer, read_corpus):
    """read_corpus whose iteration time becomes one 'retrieval.read_corpus'
    span under whatever consumes it (the index build)."""

    def traced(path):
        inner = read_corpus(path)

        def iterate():
            spent, count = 0.0, 0
            while True:
                start = _clock()
                doc = next(inner, None)
                spent += _clock() - start
                if doc is None:
                    break
                count += 1
                yield doc
            now = _clock()
            tracer.record("retrieval.read_corpus", now - spent, now, {"docs": count})

        return iterate()

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs_of in _TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(original.__func__, name, attrs_of)))
            else:
                setattr(owner, attr, tracer.wrap(original, name, attrs_of))
        saved.append((respqa.cli, "read_corpus", respqa.cli.read_corpus))
        respqa.cli.read_corpus = _timed_corpus(tracer, respqa.cli.read_corpus)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTree:
    """Exclusive (self) times: a span's duration minus its direct children's."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        child_sum: dict[int, float] = {}
        ext_sum: dict[int, float] = {}
        for span_id, parent, name, start, end, _qid, _attrs in spans:
            if parent:
                child_sum[parent] = child_sum.get(parent, 0.0) + (end - start)
                if layer(name) == "ext":
                    ext_sum[parent] = ext_sum.get(parent, 0.0) + (end - start)
        self.child_sum = child_sum
        self.ext_sum = ext_sum

    def self_time(self, span: tuple) -> float:
        return (span[4] - span[3]) - self.child_sum.get(span[0], 0.0)

    def without_external(self, span: tuple) -> float:
        """Duration minus time in benchmark-owned external services."""
        return (span[4] - span[3]) - self.ext_sum.get(span[0], 0.0)

    def named(self, name: str) -> list[tuple]:
        return [span for span in self.spans if span[2] == name]
