"""Uniform completion interface over two backends.

``HttpChatBackend`` speaks the de-facto chat-completion wire protocol with
bounded retries and exponential backoff; ``ScriptedBackend`` replays a
deterministic rule script for tests. All LLM traffic in the package flows
through ``BackendRouter.complete``.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol

from .errors import BackendError, ConfigurationError, ScriptError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

ROLE_TAGS = ("reasoner", "summarizer", "generator")

TokenEstimator = Callable[[str], float]

_WORD = re.compile(r"\S+")

# Whitespace tokens undercount subword tokenizers; 1.3 is the documented
# fudge factor. All cap checks in the package use the same estimator.
_WORDS_PER_TOKEN = 1.3


def whitespace_token_estimate(text: str) -> float:
    """Rough token count: whitespace-separated words times 1.3."""
    return len(text.split()) * _WORDS_PER_TOKEN


def truncate_to_token_estimate(
    text: str, max_tokens: int, estimator: TokenEstimator = whitespace_token_estimate
) -> str:
    """Longest word-prefix of ``text`` whose estimate fits ``max_tokens``.

    Original inter-word whitespace is preserved. Assumes the estimator is
    non-decreasing in prefix length.
    """
    if estimator(text) <= max_tokens:
        return text
    ends = [m.end() for m in _WORD.finditer(text)]
    lo, hi = 0, len(ends)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if estimator(text[: ends[mid - 1]]) <= max_tokens:
            lo = mid
        else:
            hi = mid - 1
    return text[: ends[lo - 1]] if lo else ""


@dataclass(frozen=True)
class LlmRequest:
    """One completion request, tagged with the agent role that issued it."""

    prompt: str
    max_output_tokens: int
    temperature: float = 0.0
    role_tag: str = "reasoner"

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.role_tag not in ROLE_TAGS:
            raise ValueError(f"unknown role_tag: {self.role_tag!r}")


@dataclass(frozen=True)
class LlmResponse:
    text: str
    backend_id: str
    latency: float


class LlmBackend(Protocol):
    backend_id: str

    def complete(self, request: LlmRequest) -> LlmResponse: ...


class _CompletionBase:
    """Shared complete(): timing plus output-cap truncation."""

    backend_id: str
    estimator: TokenEstimator

    def complete(self, request: LlmRequest) -> LlmResponse:
        start = time.perf_counter()
        text = self._generate(request)
        text = truncate_to_token_estimate(text, request.max_output_tokens, self.estimator)
        return LlmResponse(
            text=text, backend_id=self.backend_id, latency=time.perf_counter() - start
        )

    def _generate(self, request: LlmRequest) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ScriptedRule:
    """A scripted response keyed by substring or by 0-based call ordinal."""

    match: str | int
    response: str


def load_script(path: str | Path) -> list[ScriptedRule]:
    """Load rules from JSONL lines {"match": <str|int>, "response": <str>}."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"script file not found: {path}")
    rules: list[ScriptedRule] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(row, dict) or "match" not in row or "response" not in row:
                raise ConfigurationError(f"{path}:{lineno}: expected keys 'match' and 'response'")
            match = row["match"]
            if isinstance(match, bool) or not isinstance(match, (str, int)):
                raise ConfigurationError(f"{path}:{lineno}: 'match' must be a string or integer")
            if not isinstance(row["response"], str):
                raise ConfigurationError(f"{path}:{lineno}: 'response' must be a string")
            rules.append(ScriptedRule(match=match, response=row["response"]))
    return rules


@dataclass(frozen=True)
class ScriptedCall:
    position: int
    role_tag: str
    prompt: str
    response: str


class ScriptedBackend(_CompletionBase):
    """Deterministic backend replaying a rule script.

    One instance is one conversation: a call counter advances per request
    (under a lock, so concurrent callers consume positions deterministically
    one at a time). Integer-matched rules fire at exactly their call
    position and win over substring rules; substring rules are scanned in
    script order and are reusable. A request nothing matches raises
    ScriptError quoting the prompt, never a silent default.
    """

    def __init__(
        self,
        rules: Iterable[ScriptedRule],
        backend_id: str = "scripted",
        estimator: TokenEstimator = whitespace_token_estimate,
    ) -> None:
        self.backend_id = backend_id
        self.estimator = estimator
        self._rules = list(rules)
        self._ordinal: dict[int, ScriptedRule] = {}
        for rule in self._rules:
            if isinstance(rule.match, int) and rule.match not in self._ordinal:
                self._ordinal[rule.match] = rule
        self._substring = [rule for rule in self._rules if isinstance(rule.match, str)]
        self._calls = 0
        self._lock = threading.Lock()
        self.history: list[ScriptedCall] = []

    def _generate(self, request: LlmRequest) -> str:
        with self._lock:
            position = self._calls
            self._calls += 1
            rule = self._ordinal.get(position)
            if rule is None:
                for candidate in self._substring:
                    if candidate.match in request.prompt:
                        rule = candidate
                        break
            if rule is None:
                raise ScriptError(
                    f"no scripted rule matches call {position} "
                    f"(role={request.role_tag}): {request.prompt!r}"
                )
            self.history.append(
                ScriptedCall(
                    position=position,
                    role_tag=request.role_tag,
                    prompt=request.prompt,
                    response=rule.response,
                )
            )
            return rule.response


class HttpChatBackend(_CompletionBase):
    """Chat-completion wire client with retries and exponential backoff.

    Transient failures (connection errors, timeouts, HTTP 429/5xx) are
    retried up to ``max_attempts`` with delays base * 2**attempt; anything
    else, or exhaustion, surfaces as BackendError carrying the role tag.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        backend_id: str | None = None,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff_base: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        session: requests.Session | None = None,
        estimator: TokenEstimator = whitespace_token_estimate,
    ) -> None:
        endpoint = endpoint.rstrip("/")
        if not endpoint.endswith("/chat/completions"):
            endpoint = endpoint + "/chat/completions"
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.backend_id = backend_id or f"http:{model}"
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.estimator = estimator
        self._sleep = sleep
        if session is None:
            import requests  # deferred: offline runs never load the HTTP stack

            session = requests.Session()
        self._session = session

    def _generate(self, request: LlmRequest) -> str:
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            try:
                response = self._session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
                if response.status_code == 429 or response.status_code >= 500:
                    raise _TransientHttpError(f"HTTP {response.status_code}")
                if response.status_code >= 400:
                    raise BackendError(
                        f"{self.backend_id}: HTTP {response.status_code}: "
                        f"{response.text[:500]}",
                        role_tag=request.role_tag,
                    )
                return self._extract_text(response, request)
            except (_TransientHttpError, requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                if attempt < self.max_attempts - 1:
                    delay = self.backoff_base * (2**attempt)
                    logger.debug(
                        "transient failure from %s (attempt %d/%d): %s; retrying in %.1fs",
                        self.backend_id,
                        attempt + 1,
                        self.max_attempts,
                        exc,
                        delay,
                    )
                    self._sleep(delay)
        raise BackendError(
            f"{self.backend_id}: request failed after {self.max_attempts} attempts: {last_error}",
            role_tag=request.role_tag,
        )

    def _extract_text(self, response: requests.Response, request: LlmRequest) -> str:
        try:
            payload = response.json()
            return str(payload["choices"][0]["message"]["content"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(
                f"{self.backend_id}: malformed completion response: {exc}",
                role_tag=request.role_tag,
            ) from exc


class _TransientHttpError(Exception):
    pass


class BackendRouter:
    """Binds each agent role to a completion backend.

    An unbound role is a configuration error at construction time, never at
    call time. All roles may share one backend.
    """

    def __init__(self, bindings: Mapping[str, LlmBackend]) -> None:
        missing = [role for role in ROLE_TAGS if role not in bindings]
        if missing:
            raise ConfigurationError(f"no backend bound for role(s): {', '.join(missing)}")
        unknown = [role for role in bindings if role not in ROLE_TAGS]
        if unknown:
            raise ConfigurationError(f"unknown role(s) in binding: {', '.join(unknown)}")
        self._bindings = dict(bindings)

    def backend_for(self, role_tag: str) -> LlmBackend:
        try:
            return self._bindings[role_tag]
        except KeyError:
            raise ConfigurationError(f"no backend bound for role: {role_tag!r}") from None

    def complete(self, request: LlmRequest) -> LlmResponse:
        return self.backend_for(request.role_tag).complete(request)
