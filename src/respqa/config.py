"""Application configuration: YAML file, environment, CLI overrides, wiring.

Precedence is flag > environment > file. Validation is total and happens at
startup: a missing role binding, backend, or path fails before any LLM call.

Environment variables: ``RESPQA_LLM_ENDPOINT``, ``RESPQA_LLM_MODEL``, and
``RESPQA_API_KEY`` (or the per-backend ``api_key_env`` named in the file).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

import yaml

from .agents import PipelineAgents, PipelineConfig, PromptTemplateSet
from .errors import ConfigurationError
from .llm import (
    ROLE_TAGS,
    BackendRouter,
    HttpChatBackend,
    LlmBackend,
    ScriptedBackend,
    ScriptedRule,
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
    name: str
    kind: str  # "http" | "scripted"
    endpoint: str | None = None
    model: str | None = None
    api_key: str | None = None
    script: Path | None = None


@dataclass
class AppConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    backends: dict[str, BackendSpec] = field(default_factory=dict)
    roles: dict[str, str] = field(default_factory=dict)
    retriever_kind: str = "bm25"
    index_dir: Path | None = None
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    embedding_endpoint: str | None = None
    embedding_model: str | None = None
    embedding_api_key: str | None = None
    vectors_path: Path | None = None
    templates_dir: Path | None = None
    parallelism: int = 1


@dataclass(frozen=True)
class CliOverrides:
    """Values from command-line flags; highest precedence."""

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


def _require_http_url(url: object, owner: str) -> None:
    try:
        parts = urlsplit(url) if isinstance(url, str) else None
    except ValueError:
        parts = None
    _require(
        parts is not None and parts.scheme in ("http", "https") and bool(parts.netloc),
        f"{owner}: endpoint {url!r} is not an http(s) URL",
    )


def _section(data: dict, key: str, known: tuple[str, ...] | None) -> dict:
    """The mapping under ``key``; with ``known``, a key outside it is an error."""
    value = data.get(key) or {}
    _require(isinstance(value, dict), f"config section {key!r} must be a mapping")
    if known is not None:
        _check_keys(value, known, f"{key}.")
    return value


def _check_keys(mapping: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Refuse a key the loader does not read, so that a misspelt setting is not lost."""
    unknown = [f"{prefix}{key}" for key in mapping if key not in known]
    _require(not unknown, f"unknown config key(s): {', '.join(unknown)}")


def load_app_config(path: str | Path | None, overrides: CliOverrides | None = None) -> AppConfig:
    """Load, merge, and fully validate the application configuration."""
    overrides = overrides or CliOverrides()
    data: dict = {}
    if path is not None:
        path = Path(path)
        try:
            loaded = yaml.safe_load(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigurationError(f"unreadable config file {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        _require(isinstance(loaded, dict), "config file must contain a mapping at top level")
        data = loaded
    _check_keys(data, ("pipeline", "retriever", "backends", "roles", "eval", "templates_dir"))

    pipeline = _load_pipeline(_section(data, "pipeline", _PIPELINE_KEYS), overrides)
    retriever = _section(
        data,
        "retriever",
        ("kind", "index_dir", "k1", "b", "endpoint", "model", "api_key_env", "vectors"),
    )
    eval_section = _section(data, "eval", ("parallelism",))

    backends = _load_backends(_section(data, "backends", known=None), overrides)
    roles = _load_roles(data.get("roles"), backends, overrides)

    templates_dir = overrides.templates_dir or data.get("templates_dir")
    if templates_dir is not None:
        templates_dir = Path(templates_dir)
        _require(templates_dir.is_dir(), f"templates directory not found: {templates_dir}")

    index_dir = overrides.index_dir or retriever.get("index_dir")
    parallelism = overrides.parallelism
    if parallelism is None:
        parallelism = _integer(eval_section.get("parallelism", 1), "eval.parallelism")
    k1 = _number(retriever.get("k1", DEFAULT_K1), "retriever.k1")
    b = _number(retriever.get("b", DEFAULT_B), "retriever.b")
    _require(parallelism >= 1, f"parallelism must be >= 1, got {parallelism}")
    _require(0 <= k1 < math.inf, f"retriever.k1 must be finite and >= 0, got {k1}")
    _require(0 <= b <= 1, f"retriever.b must be between 0 and 1, got {b}")
    if retriever.get("endpoint") is not None:
        _require_http_url(retriever["endpoint"], "retriever")

    config = AppConfig(
        pipeline=pipeline,
        backends=backends,
        roles=roles,
        retriever_kind=str(retriever.get("kind", "bm25")),
        index_dir=Path(index_dir) if index_dir else None,
        k1=k1,
        b=b,
        embedding_endpoint=retriever.get("endpoint"),
        embedding_model=retriever.get("model"),
        embedding_api_key=_resolve_api_key(retriever.get("api_key_env")),
        vectors_path=Path(retriever["vectors"]) if retriever.get("vectors") else None,
        templates_dir=templates_dir,
        parallelism=parallelism,
    )
    _require(
        config.retriever_kind in ("bm25", "embedding"),
        f"unknown retriever kind: {config.retriever_kind!r}",
    )
    return config


def _integer(value: object, key: str) -> int:
    """An integer setting from the file; a bool, a string or a fractional number is an error."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    _require(integral and not isinstance(value, bool), f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(value: object, key: str) -> float:
    """A float setting from the file; a bool is an error. A string that parses is
    accepted, because YAML reads an exponent without a dot (``1e-3``) as a string."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} must be a number, got {value!r}")


_INTEGER_PIPELINE_KEYS = ("top_k", "max_iterations", "max_input_tokens", "max_output_tokens")
_PIPELINE_KEYS = (*_INTEGER_PIPELINE_KEYS, "generator_temperature", "log_prompts")


def _load_pipeline(section: dict, overrides: CliOverrides) -> PipelineConfig:
    """The file's pipeline settings over PipelineConfig's defaults, then the flags."""
    settings: dict = {
        key: _integer(section[key], f"pipeline.{key}")
        for key in _INTEGER_PIPELINE_KEYS
        if key in section
    }
    if "generator_temperature" in section:
        settings["generator_temperature"] = _number(
            section["generator_temperature"], "pipeline.generator_temperature"
        )
    if "log_prompts" in section:
        log_prompts = section["log_prompts"]
        _require(
            isinstance(log_prompts, bool),
            f"pipeline.log_prompts must be true or false, got {log_prompts!r}",
        )
        settings["log_prompts"] = log_prompts
    if overrides.top_k is not None:
        settings["top_k"] = overrides.top_k
    if overrides.max_iterations is not None:
        settings["max_iterations"] = overrides.max_iterations
    if overrides.log_prompts:
        settings["log_prompts"] = True
    try:
        return PipelineConfig(**settings)
    except ValueError as exc:
        raise ConfigurationError(f"pipeline.{exc}") from exc


def _resolve_api_key(api_key_env: str | None) -> str | None:
    return os.environ.get(api_key_env or ENV_API_KEY) or None


# The keys a backend of each kind may set.
_BACKEND_KEYS = {
    "http": ("kind", "endpoint", "model", "api_key_env"),
    "scripted": ("kind", "script"),
}


def _load_backends(section: dict, overrides: CliOverrides) -> dict[str, BackendSpec]:
    backends: dict[str, BackendSpec] = {}
    for name, raw in section.items():
        _require(isinstance(raw, dict), f"backend {name!r} must be a mapping")
        kind = raw.get("kind", "http")
        _require(kind in ("http", "scripted"), f"backend {name!r}: unknown kind {kind!r}")
        _check_keys(raw, _BACKEND_KEYS[kind], f"backends.{name}.")
        if kind == "scripted":
            script = raw.get("script")
            _require(bool(script), f"backend {name!r}: scripted backends need a 'script' path")
            script_path = Path(script)
            _require(script_path.exists(), f"backend {name!r}: script not found: {script_path}")
            backends[name] = BackendSpec(name=name, kind="scripted", script=script_path)
        else:
            endpoint = raw.get("endpoint") or os.environ.get(ENV_ENDPOINT)
            model = raw.get("model") or os.environ.get(ENV_MODEL) or "default"
            backends[name] = BackendSpec(
                name=name,
                kind="http",
                endpoint=endpoint,
                model=str(model),
                api_key=_resolve_api_key(raw.get("api_key_env")),
            )

    # Flag-level test mode: a scripted backend overrides all HTTP wiring.
    if overrides.script is not None:
        script_path = Path(overrides.script)
        _require(script_path.exists(), f"script not found: {script_path}")
        backends["scripted"] = BackendSpec(name="scripted", kind="scripted", script=script_path)
    elif overrides.endpoint or (not backends and os.environ.get(ENV_ENDPOINT)):
        endpoint = overrides.endpoint or os.environ.get(ENV_ENDPOINT)
        model = overrides.model or os.environ.get(ENV_MODEL) or "default"
        backends["default"] = BackendSpec(
            name="default",
            kind="http",
            endpoint=endpoint,
            model=str(model),
            api_key=_resolve_api_key(None),
        )
    elif overrides.model is not None:
        for name, spec in list(backends.items()):
            if spec.kind == "http":
                backends[name] = replace(spec, model=overrides.model)

    for spec in backends.values():
        if spec.kind == "http":
            _require(
                bool(spec.endpoint),
                f"backend {spec.name!r} has no endpoint "
                f"(set it in the config file, {ENV_ENDPOINT}, or --llm-endpoint)",
            )
            _require_http_url(spec.endpoint, f"backend {spec.name!r}")
    return backends


def _load_roles(
    raw_roles: object, backends: dict[str, BackendSpec], overrides: CliOverrides
) -> dict[str, str]:
    if overrides.script is not None:
        return {role: "scripted" for role in ROLE_TAGS}
    _require(
        bool(backends),
        "no completion backend configured (define one in the config file, set "
        f"{ENV_ENDPOINT}, or pass --llm-endpoint / --script)",
    )
    roles: dict[str, str]
    if raw_roles is None:
        _require(
            len(backends) == 1,
            "no 'roles' section: either define one and only one backend "
            "(bound to every role) or add explicit role bindings",
        )
        only = next(iter(backends))
        roles = {role: only for role in ROLE_TAGS}
    else:
        _require(isinstance(raw_roles, dict), "'roles' must be a mapping")
        roles = {str(role): str(name) for role, name in raw_roles.items()}
    missing = [role for role in ROLE_TAGS if role not in roles]
    _require(not missing, f"no backend bound for role(s): {', '.join(missing)}")
    for role, name in roles.items():
        _require(role in ROLE_TAGS, f"unknown role in 'roles': {role!r}")
        _require(name in backends, f"role {role!r} bound to undefined backend {name!r}")
    return roles


class AppRuntime:
    """Configured components, ready to run questions.

    Scripted backends get a fresh conversation per question run so rule
    ordinals stay deterministic under batch parallelism; HTTP backends are
    shared singletons.
    """

    def __init__(self, config: AppConfig) -> None:
        self.config = config
        self.retriever = _build_retriever(config)
        self.templates = (
            PromptTemplateSet.load_dir(config.templates_dir)
            if config.templates_dir
            else PromptTemplateSet.load_default()
        )
        self._http_backends: dict[str, HttpChatBackend] = {}
        self._script_rules: dict[str, list[ScriptedRule]] = {}
        for name, spec in config.backends.items():
            if spec.kind == "http":
                assert spec.endpoint is not None and spec.model is not None
                self._http_backends[name] = HttpChatBackend(
                    endpoint=spec.endpoint,
                    model=spec.model,
                    api_key=spec.api_key,
                    backend_id=name,
                    pool_size=config.parallelism,
                )
            else:
                assert spec.script is not None
                self._script_rules[name] = load_script(spec.script)

    def fresh_bindings(self) -> dict[str, LlmBackend]:
        scripted: dict[str, ScriptedBackend] = {}
        bindings: dict[str, LlmBackend] = {}
        for role, name in self.config.roles.items():
            spec = self.config.backends[name]
            if spec.kind == "http":
                bindings[role] = self._http_backends[name]
            else:
                if name not in scripted:
                    scripted[name] = ScriptedBackend(self._script_rules[name], backend_id=name)
                bindings[role] = scripted[name]
        return bindings

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


def _build_retriever(config: AppConfig) -> Retriever:
    _require(config.index_dir is not None, "no index directory configured (retriever.index_dir)")
    assert config.index_dir is not None
    _require(
        config.index_dir.is_dir(),
        f"index directory not found: {config.index_dir} (run the 'index' command first)",
    )
    index = BM25Index.open(config.index_dir, k1=config.k1, b=config.b)
    if config.retriever_kind == "bm25":
        return index
    _require(
        bool(config.embedding_endpoint) and bool(config.vectors_path),
        "embedding retriever needs retriever.endpoint and retriever.vectors",
    )
    assert config.embedding_endpoint is not None and config.vectors_path is not None
    client = EmbeddingEndpointClient(
        endpoint=config.embedding_endpoint,
        model=config.embedding_model or "default",
        api_key=config.embedding_api_key,
        pool_size=config.parallelism,
    )
    # The BM25 index is needed only for its documents: let it go before the vectors load.
    documents = index.documents
    del index
    return EmbeddingRetriever(documents, load_vectors(config.vectors_path), client)
