"""Application configuration: YAML file, environment, CLI overrides, wiring.

The ``pipeline`` and ``retriever`` sections are each read into one record
whose fields are the section's keys. Precedence is flag > file > environment:
the environment fills only what neither sets. Validation is total and happens
at startup: a missing role binding, backend, or path, or an LLM flag that no
HTTP backend takes, fails before any LLM call. ``--script`` takes the place
of the file's backends and roles: the backends are parsed for their keys and
types, but no endpoint, model, key or script path is read for them.

Environment variables: ``RESPQA_LLM_ENDPOINT``, ``RESPQA_LLM_MODEL``, and
``RESPQA_API_KEY`` (or the per-backend ``api_key_env`` named in the file).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, get_type_hints
from urllib.parse import urlsplit

import yaml

from .agents import PipelineAgents, PipelineConfig, PromptTemplateSet
from .errors import ConfigurationError
from .jsonl import require_utf8
from .llm import (
    ROLE_TAGS,
    BackendRouter,
    HttpChatBackend,
    LlmBackend,
    ScriptedBackend,
    load_script,
)
from .pipeline import PIPELINE_RESP, PIPELINE_STANDARD, RunTrace, run_resp, run_standard_rag
from .retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    BM25Index,
    EmbeddingEndpointClient,
    EmbeddingRetriever,
    Retriever,
    load_vectors,
)

ENV_ENDPOINT = "RESPQA_LLM_ENDPOINT"
ENV_MODEL = "RESPQA_LLM_MODEL"
ENV_API_KEY = "RESPQA_API_KEY"


@dataclass(frozen=True)
class BackendSpec:
    kind: str  # "http" | "scripted"
    endpoint: str | None = None
    model: str | None = None
    api_key: str | None = None
    script: Path | None = None


@dataclass
class RetrieverConfig:
    """The ``retriever:`` section, one field per key; ``api_key`` is read for embedding only."""

    kind: str = "bm25"
    index_dir: Path | None = None
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str | None = None
    vectors: Path | None = None
    api_key: str | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        _require(0 <= self.k1 < math.inf, f"retriever.k1 must be finite and >= 0, got {self.k1}")
        _require(0 <= self.b <= 1, f"retriever.b must be between 0 and 1, got {self.b}")
        _require(self.kind in ("bm25", "embedding"), f"unknown retriever kind: {self.kind!r}")
        if self.kind == "embedding":
            for key in ("endpoint", "vectors"):
                _require(vars(self)[key] is not None, f"embedding retriever needs retriever.{key}")
            self.api_key = _resolve_api_key(self.api_key_env)


@dataclass
class AppConfig:
    pipeline: PipelineConfig
    retriever: RetrieverConfig
    backends: dict[str, BackendSpec]
    roles: dict[str, str]
    templates_dir: Path | None
    parallelism: int


@dataclass(frozen=True)
class CliOverrides:
    """Values from command-line flags; highest precedence. Each field is named
    after the setting it overrides and is its flag's dest, so the CLI fills the
    fields from the parsed arguments by name. A field named after a
    PipelineConfig setting overrides that setting."""

    endpoint: str | None = None
    model: str | None = None
    script: str | None = None
    index_dir: str | None = None
    top_k: int | None = None
    max_iterations: int | None = None
    log_prompts: bool = False
    templates_dir: str | None = None
    parallelism: int | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


# The parsers: each takes a setting's value and its dotted key, for messages.
def _keep(value: object, key: str) -> object:
    return value


def _integer(value: object, key: str) -> int:
    """An integer setting; a bool, a string or a fractional number is an error."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    _require(integral and not isinstance(value, bool), f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(value: object, key: str) -> float:
    """A float setting; a bool is an error. A string that parses is accepted,
    because YAML reads an exponent without a dot (``1e-3``) as a string."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} must be a number, got {value!r}")


def _bool(value: object, key: str) -> bool:
    _require(isinstance(value, bool), f"{key} must be true or false, got {value!r}")
    return value


def _utf8(value: object, key: str) -> object:
    """``value``, unless it is a string UTF-8 cannot encode (a lone surrogate)."""
    if isinstance(value, str):
        require_utf8(value, key, ConfigurationError)
    return value


def _string(value: object, key: str) -> str | None:
    """A string, such as the name of an environment variable; null leaves it unset."""
    _require(value is None or isinstance(value, str), f"{key} must be a string, got {value!r}")
    return _utf8(value, key)


def _text(value: object, key: str) -> str | None:
    """A name such as a model's, read as text: YAML reads ``70`` as a number.
    Null leaves it unset."""
    scalar = isinstance(value, (str, int, float)) and not isinstance(value, bool)
    _require(value is None or scalar, f"{key} must be a string, got {value!r}")
    return None if value is None else _utf8(str(value), key)


def _path(value: object, key: str) -> Path | None:
    """A path; null or an empty string leaves it unset."""
    text = _string(value, key)
    return Path(text) if text else None


def _url(value: object, key: str) -> str | None:
    """An http(s) URL; null leaves it unset."""
    try:
        parts = urlsplit(_utf8(value, key)) if isinstance(value, str) else None
    except ValueError:
        parts = None
    http = parts is not None and parts.scheme in ("http", "https") and bool(parts.netloc)
    _require(value is None or http, f"{key} {value!r} is not an http(s) URL")
    return value


def _mapping(value: object, key: str) -> dict:
    value = {} if value is None else value
    _require(isinstance(value, dict), f"config section {key!r} must be a mapping")
    return value


def _parse(mapping: dict, parsers: dict[str, Callable], prefix: str) -> dict:
    """Each key of ``mapping`` through its parser. A key with no parser is
    refused, so that a misspelt setting is not lost."""
    unknown = [f"{prefix}{key}" for key in mapping if key not in parsers]
    _require(not unknown, f"unknown config key(s): {', '.join(unknown)}")
    return {key: parsers[key](value, f"{prefix}{key}") for key, value in mapping.items()}


def _table(parsers: dict[str, Callable]) -> Callable[[object, str], dict]:
    """The parser of a section whose keys ``parsers`` read."""
    return lambda value, key: _parse(_mapping(value, key), parsers, f"{key}.")


# The settings tables. The pipeline's is read off PipelineConfig's field types.
_PIPELINE = {
    name: {int: _integer, float: _number, bool: _bool}[hint]
    for name, hint in get_type_hints(PipelineConfig).items()
}
_RETRIEVER = {
    "kind": _keep, "index_dir": _path, "k1": _number, "b": _number,
    "endpoint": _url, "model": _text, "api_key_env": _string, "vectors": _path,
}
_FILE = {
    "pipeline": _table(_PIPELINE), "retriever": _table(_RETRIEVER), "backends": _mapping,
    "roles": _keep, "eval": _table({"parallelism": _integer}), "templates_dir": _path,
}
_BACKEND_KINDS = {
    "http": {"kind": _keep, "endpoint": _keep, "model": _text, "api_key_env": _string},
    "scripted": {"kind": _keep, "script": _path},
}


def load_app_config(path: str | Path | None, overrides: CliOverrides | None = None) -> AppConfig:
    """Load, merge, and fully validate the application configuration."""
    overrides = overrides or CliOverrides()
    data = None
    if path is not None:
        try:
            # libyaml's parser, where PyYAML was built with it, is ~4x faster.
            loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
            data = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=loader)
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigurationError(f"unreadable config file {path}: {exc}") from exc
    _require(
        data is None or isinstance(data, dict), "config file must contain a mapping at top level"
    )
    parsed = _parse(data or {}, _FILE, "")

    pipeline = parsed.get("pipeline", {})
    for name in _PIPELINE:
        flag = getattr(overrides, name, None)
        if flag is not None and flag is not False:
            pipeline[name] = flag
    try:
        pipeline_config = PipelineConfig(**pipeline)
    except ValueError as exc:
        raise ConfigurationError(f"pipeline.{exc}") from exc

    backends = _load_backends(parsed.get("backends", {}), overrides)
    roles = _load_roles(None if overrides.script else parsed.get("roles"), backends)

    templates_dir = _path(overrides.templates_dir, "--templates-dir") or parsed.get("templates_dir")
    if templates_dir is not None:
        _require(templates_dir.is_dir(), f"templates directory not found: {templates_dir}")
    flag = overrides.parallelism
    parallelism = parsed.get("eval", {}).get("parallelism", 1) if flag is None else flag
    _require(parallelism >= 1, f"eval.parallelism must be >= 1, got {parallelism}")
    retriever = parsed.get("retriever", {})
    index_dir = _path(overrides.index_dir, "--index-dir") or retriever.get("index_dir")
    return AppConfig(
        pipeline=pipeline_config,
        retriever=RetrieverConfig(**{**retriever, "index_dir": index_dir}),
        backends=backends,
        roles=roles,
        templates_dir=templates_dir,
        parallelism=parallelism,
    )


def _resolve_api_key(api_key_env: str | None) -> str | None:
    """The key in ``api_key_env`` (default ``RESPQA_API_KEY``), None if unset or empty.
    A key that an HTTP header cannot carry is refused, by the variable's name alone."""
    name = api_key_env or ENV_API_KEY
    key = os.environ.get(name) or None
    if key is not None:
        _require(
            max(key) <= "\xff" and "\r" not in key and "\n" not in key,
            f"the API key in ${name} cannot be sent in an HTTP header: "
            "it holds a CR, an LF or a character outside Latin-1",
        )
    return key


def _http_backend(name: str, settings: dict, overrides: CliOverrides) -> BackendSpec:
    """An HTTP backend. ``--llm-endpoint`` and ``--model`` override the file's
    endpoint and model, which fall back to the environment."""
    endpoint = overrides.endpoint or settings.get("endpoint") or os.environ.get(ENV_ENDPOINT)
    _require(
        bool(endpoint),
        f"backend {name!r} has no endpoint "
        f"(set it in the config file, {ENV_ENDPOINT}, or --llm-endpoint)",
    )
    return BackendSpec(
        kind="http",
        endpoint=_url(endpoint, f"backend {name!r}: endpoint"),
        model=overrides.model or settings.get("model") or os.environ.get(ENV_MODEL) or "default",
        api_key=_resolve_api_key(settings.get("api_key_env")),
    )


def _load_backends(section: dict, overrides: CliOverrides) -> dict[str, BackendSpec]:
    # Flag-level test mode: a scripted backend takes the place of the file's.
    script_path = _path(overrides.script, "--script")
    backends: dict[str, BackendSpec] = {}
    for name, raw in section.items():
        _require(isinstance(raw, dict), f"backend {name!r} must be a mapping")
        kind = raw.get("kind", "http")
        _require(kind in ("http", "scripted"), f"backend {name!r}: unknown kind {kind!r}")
        settings = _parse(raw, _BACKEND_KINDS[kind], f"backends.{name}.")
        if script_path is not None:  # parsed for its keys and types, never resolved
            continue
        if kind == "http":
            backends[name] = _http_backend(name, settings, overrides)
            continue
        script = settings.get("script")
        _require(script is not None, f"backend {name!r}: scripted backends need a 'script' path")
        _require(script.exists(), f"backend {name!r}: script not found: {script}")
        backends[name] = BackendSpec(kind="scripted", script=script)

    if script_path is not None:
        _require(script_path.exists(), f"script not found: {script_path}")
        backends = {"scripted": BackendSpec(kind="scripted", script=script_path)}
    elif not backends and (overrides.endpoint or os.environ.get(ENV_ENDPOINT)):
        backends["default"] = _http_backend("default", {}, overrides)
    if not any(spec.kind == "http" for spec in backends.values()):
        for flag, value in (("--llm-endpoint", overrides.endpoint), ("--model", overrides.model)):
            _require(not value, f"{flag} is set, but no HTTP backend is configured to use it")
    return backends


def _load_roles(raw_roles: object, backends: dict[str, BackendSpec]) -> dict[str, str]:
    _require(
        bool(backends),
        "no completion backend configured (define one in the config file, set "
        f"{ENV_ENDPOINT}, or pass --llm-endpoint / --script)",
    )
    if raw_roles is None:
        _require(
            len(backends) == 1,
            "no 'roles' section: either define one and only one backend "
            "(bound to every role) or add explicit role bindings",
        )
        raw_roles = dict.fromkeys(ROLE_TAGS, next(iter(backends)))
    roles = _parse(_mapping(raw_roles, "roles"), dict.fromkeys(ROLE_TAGS, _text), "roles.")
    missing = [role for role in ROLE_TAGS if role not in roles]
    _require(not missing, f"no backend bound for role(s): {', '.join(missing)}")
    for role, name in roles.items():
        _require(name in backends, f"role {role!r} bound to undefined backend {name!r}")
    return roles


class AppRuntime:
    """Configured components, ready to run questions.

    Each configured backend is built once. A scripted one gives each question
    run a fresh conversation (``ScriptedBackend.fresh``), shared by the roles
    bound to it, so rule ordinals stay deterministic under batch parallelism;
    an HTTP one is shared by every run. A run can have two requests in flight,
    the early one from a helper thread started on demand (``run_resp``), so a
    chat backend pools two connections per run.
    """

    def __init__(self, config: AppConfig) -> None:
        self.config = config
        self.retriever = _build_retriever(config.retriever, config.parallelism)
        self.templates = (
            PromptTemplateSet.load_dir(config.templates_dir)
            if config.templates_dir
            else PromptTemplateSet.load_default()
        )
        self._backends: dict[str, LlmBackend] = {
            name: HttpChatBackend(
                spec.endpoint, spec.model, spec.api_key, name, pool_size=2 * config.parallelism
            )
            if spec.kind == "http"
            else ScriptedBackend(load_script(spec.script), backend_id=name)
            for name, spec in config.backends.items()
        }

    def fresh_bindings(self) -> dict[str, LlmBackend]:
        """Each role's backend for one question run."""
        run = {
            name: backend.fresh() if isinstance(backend, ScriptedBackend) else backend
            for name, backend in self._backends.items()
        }
        return {role: run[name] for role, name in self.config.roles.items()}

    def runner(
        self, pipeline: str = PIPELINE_RESP, top_k: int | None = None
    ) -> Callable[[str], RunTrace]:
        """A per-question callable for the chosen pipeline (optionally at a
        different k), suitable for evaluate() and sweep_k()."""
        if pipeline not in (PIPELINE_RESP, PIPELINE_STANDARD):
            raise ConfigurationError(f"unknown pipeline: {pipeline!r}")
        pipeline_config = self.config.pipeline
        if top_k is not None:
            pipeline_config = replace(pipeline_config, top_k=top_k)
        run_fn = run_resp if pipeline == PIPELINE_RESP else run_standard_rag

        def run(question: str) -> RunTrace:
            agents = PipelineAgents(BackendRouter(self.fresh_bindings()), self.templates)
            return run_fn(question, self.retriever, agents, pipeline_config)

        return run


def _build_retriever(settings: RetrieverConfig, parallelism: int) -> Retriever:
    _require(settings.index_dir is not None, "no index directory configured (retriever.index_dir)")
    _require(
        settings.index_dir.is_dir(),
        f"index directory not found: {settings.index_dir} (run the 'index' command first)",
    )
    index = BM25Index.open(settings.index_dir, k1=settings.k1, b=settings.b)
    if settings.kind == "bm25":
        return index
    client = EmbeddingEndpointClient(
        settings.endpoint, settings.model or "default", settings.api_key, pool_size=parallelism
    )
    # The BM25 index is needed only for its documents: let it go before the vectors load.
    documents = index.documents
    del index
    return EmbeddingRetriever(documents, load_vectors(settings.vectors), client)
