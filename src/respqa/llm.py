"""Uniform completion interface over two backends, and the one HTTP client.

``JsonEndpoint`` POSTs JSON with bounded retries and exponential backoff, for
the chat client here and the embeddings client in ``retrieval``.
``HttpChatBackend`` speaks the de-facto chat-completion protocol over it;
``ScriptedBackend`` replays a deterministic rule script for tests. All LLM
traffic in the package flows through ``BackendRouter.complete``;
``BackendRouter.start`` runs it on a helper thread for a reply that is needed
later.
"""

from __future__ import annotations

import logging
import queue
import re
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol
from urllib.parse import urlsplit, urlunsplit

from .errors import BackendError, ConfigurationError, ScriptError
from .jsonl import read_jsonl, require_utf8

if TYPE_CHECKING:
    from requests import Session

logger = logging.getLogger(__name__)

ROLE_TAGS = ("reasoner", "summarizer", "generator")

_WORD = re.compile(r"\S+")

# Whitespace tokens undercount subword tokenizers; 1.3 is the documented
# fudge factor. Every cap check in the package uses this one estimate.
_WORDS_PER_TOKEN = 1.3

# JsonEndpoint: seconds per request (chat; embeddings set their own), tries, first backoff delay.
HTTP_TIMEOUT_S = 60.0
HTTP_MAX_ATTEMPTS = 3
HTTP_BACKOFF_BASE_S = 1.0
# Pooled connections per host when the caller gives no pool size: requests' default.
HTTP_POOL_SIZE = 10


def whitespace_token_estimate(text: str) -> float:
    """Rough token count: whitespace-separated words times 1.3."""
    return len(text.split()) * _WORDS_PER_TOKEN


def truncate_to_token_estimate(text: str, max_tokens: int) -> str:
    """Longest word-prefix of ``text`` whose estimate fits ``max_tokens``.

    Original inter-word whitespace is preserved.
    """
    if whitespace_token_estimate(text) <= max_tokens:
        return text
    # The most words m with m * 1.3 <= max_tokens; exact for integer caps.
    words = int(max_tokens / _WORDS_PER_TOKEN)
    if words <= 0:
        return ""
    return text[: next(islice(_WORD.finditer(text), words - 1, None)).end()]


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
    """A completion backend. One whose replies depend on the order of its
    calls says so with a true ``order_dependent`` class attribute;
    ``BackendRouter.start`` then sends none of its calls ahead of time."""

    backend_id: str

    def complete(self, request: LlmRequest) -> LlmResponse: ...


class _CompletionBase:
    """Shared complete() over a subclass's ``_generate``: timing plus output-cap truncation."""

    backend_id: str

    def complete(self, request: LlmRequest) -> LlmResponse:
        start = time.perf_counter()
        text = self._generate(request)
        text = truncate_to_token_estimate(text, request.max_output_tokens)
        return LlmResponse(
            text=text, backend_id=self.backend_id, latency=time.perf_counter() - start
        )


@dataclass(frozen=True)
class ScriptedRule:
    """A scripted response keyed by substring or by 0-based call ordinal."""

    match: str | int
    response: str


def load_script(path: str | Path) -> list[ScriptedRule]:
    """Load rules from JSONL lines {"match": <str|int>, "response": <str>}.

    An integer match is a call ordinal: a negative one, or one an earlier line
    holds, could never fire, and is refused naming its line.
    """
    rules: list[ScriptedRule] = []
    ordinals: dict[int, str] = {}
    for where, (match, response) in read_jsonl(path, ConfigurationError, ("match", "response")):
        if isinstance(match, bool) or not isinstance(match, (str, int)):
            raise ConfigurationError(f"{where}: 'match' must be a string or integer")
        if isinstance(match, int):
            if match < 0:
                raise ConfigurationError(f"{where}: call ordinal {match} is negative")
            if match in ordinals:
                raise ConfigurationError(
                    f"{where}: call ordinal {match} is already matched at {ordinals[match]}"
                )
            ordinals[match] = where
        if not isinstance(response, str):
            raise ConfigurationError(f"{where}: 'response' must be a string")
        rules.append(ScriptedRule(match=match, response=response))
    return rules


class ScriptedBackend(_CompletionBase):
    """Deterministic backend replaying a rule script.

    One instance is one conversation: a call counter advances per request
    (under a lock, so concurrent callers consume positions deterministically
    one at a time). Integer-matched rules fire at exactly their call
    position and win over substring rules; substring rules are scanned in
    script order and are reusable. A request nothing matches raises
    ScriptError quoting the prompt, never a silent default. ``history`` lists
    the requests answered, in call order; an unmatched call is not listed.
    """

    order_dependent = True

    def __init__(self, rules: Iterable[ScriptedRule], backend_id: str = "scripted") -> None:
        self.backend_id = backend_id
        self._ordinal: dict[int, ScriptedRule] = {}
        self._substring: list[ScriptedRule] = []
        for rule in rules:
            if isinstance(rule.match, str):
                self._substring.append(rule)
            else:
                self._ordinal.setdefault(rule.match, rule)
        self._calls = 0
        self._lock = threading.Lock()
        self.history: list[LlmRequest] = []

    def fresh(self) -> ScriptedBackend:
        """A new conversation, at call 0, over the same rules."""
        return ScriptedBackend([*self._ordinal.values(), *self._substring], self.backend_id)

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
            self.history.append(request)
            return rule.response


class JsonEndpoint:
    """JSON POSTed to ``endpoint`` with ``path`` appended to its URL path,
    unless that ends so already, and its query kept; with a bearer header
    when given an ``api_key``.

    Transient failures (connection errors, a reply cut off mid-body, timeouts,
    HTTP 429/5xx) are tried up to ``HTTP_MAX_ATTEMPTS`` times, the backoff
    doubling from ``HTTP_BACKOFF_BASE_S``. The endpoint's query and password
    may hold keys: ``send``'s errors and log lines show each as ``***``.
    Without a ``session`` it opens one that pools ``pool_size`` connections
    per host, one per concurrent caller; with fewer, urllib3 drops the surplus
    after each request and logs "Connection pool is full".
    """

    def __init__(
        self,
        endpoint: str,
        path: str,
        api_key: str | None = None,
        timeout: float = HTTP_TIMEOUT_S,
        session: Session | None = None,
        pool_size: int = HTTP_POOL_SIZE,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        parts = urlsplit(endpoint)
        base = parts.path.rstrip("/")
        self.url = urlunsplit(parts._replace(path=base if base.endswith(path) else base + path))
        self._secrets = [secret for secret in (parts.query, parts.password) if secret]
        # requests sets the JSON content type itself.
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        self._timeout = timeout
        if session is None:
            import requests  # deferred: offline runs never load the HTTP stack
            from requests.adapters import HTTPAdapter

            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=pool_size)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session
        self._sleep = sleep

    def send(self, payload: object, fail: Callable[[str], Exception]) -> object:
        """The parsed JSON reply to ``payload``.

        Raises ``fail(message)``, never retried, for HTTP 4xx, a body that is
        not JSON and any other ``requests`` error, and for a transient failure
        once the attempts are spent.
        """
        import requests

        def failure(message: str) -> Exception:
            return fail(self._redacted(message))

        for attempt in range(HTTP_MAX_ATTEMPTS):
            if attempt:
                delay = HTTP_BACKOFF_BASE_S * 2 ** (attempt - 1)
                logger.debug(
                    "transient failure from %s: %s; retrying in %.1fs",
                    self._redacted(self.url), self._redacted(error), delay,
                )
                self._sleep(delay)
            try:
                response = self.session.post(
                    self.url, json=payload, headers=self._headers, timeout=self._timeout
                )
            except (
                requests.ConnectionError, requests.Timeout, requests.exceptions.ChunkedEncodingError
            ) as exc:
                error = str(exc)
                continue
            except requests.RequestException as exc:
                raise failure(f"request failed: {exc}") from exc
            status = response.status_code
            if status == 429 or status >= 500:
                error = f"HTTP {status}"
            elif status >= 400:
                raise failure(f"HTTP {status}: {response.text[:500]}")
            else:
                try:
                    return response.json()
                except ValueError as exc:
                    raise failure(f"malformed response: {exc}") from exc
        raise failure(f"request failed after {HTTP_MAX_ATTEMPTS} attempts: {error}")

    def _redacted(self, text: str) -> str:
        """``text`` with each secret, as written and as ``requests`` quotes it, shown as ``***``."""
        from requests.utils import requote_uri

        for secret in self._secrets:
            text = text.replace(secret, "***").replace(requote_uri(secret), "***")
        return text


class HttpChatBackend(_CompletionBase):
    """Chat-completion client over a ``JsonEndpoint``, which retries.

    Every failure, a reply whose ``choices[0].message.content`` is not a
    string included, is a BackendError carrying the role tag.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        backend_id: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
        session: Session | None = None,
        pool_size: int = HTTP_POOL_SIZE,
    ) -> None:
        self.model = model
        self.backend_id = backend_id or f"http:{model}"
        self._http = JsonEndpoint(
            endpoint, "/chat/completions", api_key, HTTP_TIMEOUT_S, session, pool_size, sleep
        )

    def _generate(self, request: LlmRequest) -> str:
        def fail(message: str) -> BackendError:
            return BackendError(f"{self.backend_id}: {message}", role_tag=request.role_tag)

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        reply = self._http.send(payload, fail)
        try:
            content = reply["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"message content is {type(content).__name__}, not a string")
        except (KeyError, IndexError, TypeError) as exc:
            raise fail(f"malformed completion response: {exc}") from exc
        require_utf8(content, "the reply's message content", fail)
        return content


class _Helpers:
    """Daemon threads, so they never hold up the process's exit, that run the
    calls ``BackendRouter.start`` queues; one set serves the process. A call
    that finds no helper idle starts one more, so the set grows to the most
    calls ever in flight at once. A call cancelled before it is taken is skipped."""

    def __init__(self) -> None:
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._idle = threading.Semaphore(0)  # released by a helper after each call

    def _serve(self) -> None:
        while True:
            future, call, argument = self._queue.get()
            settle = None
            if future.set_running_or_notify_cancel():
                try:
                    outcome, settle = call(argument), future.set_result
                except BaseException as exc:  # the caller that reads the future raises it
                    outcome, settle = exc, future.set_exception
            # Idle before the caller sees the outcome, so its next call reuses this thread.
            self._idle.release()
            if settle is not None:
                settle(outcome)

    def submit(self, call: Callable, argument: object) -> Future | None:
        """``call(argument)`` on a helper thread; None, and nothing queued, if none
        is idle and the system refuses another."""
        if not self._idle.acquire(blocking=False):
            try:
                threading.Thread(target=self._serve, name="respqa-start", daemon=True).start()
            except RuntimeError as exc:  # no thread to be had: the call is sent inline
                logger.warning("no helper thread for an early call: %s", exc)
                return None
        future: Future = Future()
        self._queue.put((future, call, argument))
        return future


_HELPERS = _Helpers()


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
        return self._bindings[role_tag]

    def complete(self, request: LlmRequest) -> LlmResponse:
        return self.backend_for(request.role_tag).complete(request)

    def start(self, request: LlmRequest) -> Future[LlmResponse] | None:
        """``complete(request)`` on a helper thread, started if none is idle;
        the future holds its reply or its error. Cancelling the future before
        it has begun sends nothing. None, and nothing sent, when the role's
        backend replies by call order (``order_dependent``), whose calls must
        go in the order the caller makes them, or when the system refuses a
        thread."""
        if getattr(self.backend_for(request.role_tag), "order_dependent", False):
            return None
        return _HELPERS.submit(self.complete, request)
