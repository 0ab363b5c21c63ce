"""Iterative retrieve-summarize-plan question answering over a local corpus.

The pipeline alternates retrieval, dual-function summarization into two
memory queues (global evidence and the local retrieval pathway), a
sufficiency judgement, and non-repeating sub-question planning, then
generates the final answer from the accumulated memory.
"""

from .agents import (
    Judgement,
    LocalAnswer,
    PipelineAgents,
    PipelineConfig,
    PlanResult,
    PromptTemplateSet,
    assemble_prompt,
)
from .errors import (
    BackendError,
    ConfigurationError,
    CorpusError,
    DatasetError,
    PipelineError,
    PromptError,
    PromptTooLargeError,
    RespqaError,
    ScriptError,
)
from .evaluation import (
    EvalReport,
    QAExample,
    evaluate,
    exact_match,
    load_dataset,
    normalize_answer,
    token_f1,
)
from .llm import (
    BackendRouter,
    HttpChatBackend,
    LlmRequest,
    LlmResponse,
    ScriptedBackend,
    ScriptedRule,
    whitespace_token_estimate,
)
from .memory import MemoryState, normalize_question
from .pipeline import (
    IterationRecord,
    RunTrace,
    run_resp,
    run_standard_rag,
    sweep_k,
)
from .retrieval import (
    BM25Index,
    Document,
    EmbeddingRetriever,
    IndexStats,
    RetrievedDocument,
    read_corpus,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "BM25Index",
    "BackendError",
    "BackendRouter",
    "ConfigurationError",
    "CorpusError",
    "DatasetError",
    "Document",
    "EmbeddingRetriever",
    "EvalReport",
    "HttpChatBackend",
    "IndexStats",
    "IterationRecord",
    "Judgement",
    "LlmRequest",
    "LlmResponse",
    "LocalAnswer",
    "MemoryState",
    "PipelineAgents",
    "PipelineConfig",
    "PipelineError",
    "PlanResult",
    "PromptError",
    "PromptTemplateSet",
    "PromptTooLargeError",
    "QAExample",
    "RespqaError",
    "RetrievedDocument",
    "RunTrace",
    "ScriptError",
    "ScriptedBackend",
    "ScriptedRule",
    "assemble_prompt",
    "evaluate",
    "exact_match",
    "load_dataset",
    "normalize_answer",
    "normalize_question",
    "read_corpus",
    "run_resp",
    "run_standard_rag",
    "sweep_k",
    "token_f1",
    "tokenize",
    "whitespace_token_estimate",
]
