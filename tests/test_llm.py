import http.server
import json
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest
import requests

from respqa import llm
from respqa.errors import BackendError, ConfigurationError, RetrieverError, ScriptError
from respqa.llm import (
    ROLE_TAGS,
    BackendRouter,
    HttpChatBackend,
    LlmRequest,
    LlmResponse,
    ScriptedBackend,
    ScriptedRule,
    load_script,
    truncate_to_token_estimate,
    whitespace_token_estimate,
)
from respqa.retrieval import EmbeddingEndpointClient

from helpers import capture_router


class TestTokenEstimate:
    def test_counts_words_times_factor(self):
        assert whitespace_token_estimate("a b c") == pytest.approx(3.9)

    def test_empty(self):
        assert whitespace_token_estimate("") == 0.0

    def test_truncate_noop_under_cap(self):
        assert truncate_to_token_estimate("one two three", 100) == "one two three"

    def test_truncate_drops_trailing_words(self):
        text = " ".join(f"w{i}" for i in range(10))
        out = truncate_to_token_estimate(text, 5)
        # floor(5 / 1.3) = 3 words fit
        assert out == "w0 w1 w2"
        assert whitespace_token_estimate(out) <= 5

    def test_truncate_preserves_internal_whitespace(self):
        out = truncate_to_token_estimate("a\n\nb   c d e f", 4)
        assert out == "a\n\nb   c"

    def test_truncate_to_nothing(self):
        assert truncate_to_token_estimate("word", 0) == ""


class TestLlmRequest:
    def test_valid(self):
        request = LlmRequest(prompt="hi", max_output_tokens=10, role_tag="generator")
        assert request.temperature == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prompt": "", "max_output_tokens": 10},
            {"prompt": "x", "max_output_tokens": 0},
            {"prompt": "x", "max_output_tokens": 10, "temperature": -1.0},
            {"prompt": "x", "max_output_tokens": 10, "role_tag": "oracle"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LlmRequest(**kwargs)


def req(prompt: str, role: str = "reasoner", max_out: int = 200) -> LlmRequest:
    return LlmRequest(prompt=prompt, max_output_tokens=max_out, role_tag=role)


class TestScriptedBackend:
    def test_substring_match(self):
        backend = ScriptedBackend([ScriptedRule("are you able", "Yes")])
        response = backend.complete(req("Judging... are you able to respond to X?"))
        assert response.text == "Yes"
        assert response.backend_id == "scripted"

    def test_ordinal_takes_precedence(self):
        backend = ScriptedBackend(
            [ScriptedRule("always", "sub"), ScriptedRule(1, "second-call")]
        )
        assert backend.complete(req("always matches")).text == "sub"
        assert backend.complete(req("always matches")).text == "second-call"
        assert backend.complete(req("always matches")).text == "sub"

    def test_substring_rules_scanned_in_order(self):
        backend = ScriptedBackend(
            [ScriptedRule("specific phrase", "first"), ScriptedRule("phrase", "second")]
        )
        assert backend.complete(req("a specific phrase here")).text == "first"
        assert backend.complete(req("just a phrase")).text == "second"

    def test_unmatched_quotes_prompt(self):
        backend = ScriptedBackend([ScriptedRule("nothing", "x")])
        with pytest.raises(ScriptError, match="distinctive-prompt-text"):
            backend.complete(req("distinctive-prompt-text"))

    def test_replay_is_deterministic(self):
        rules = [ScriptedRule(0, "r0"), ScriptedRule("fallback", "rN")]
        prompts = ["fallback one", "fallback two", "fallback three"]

        def replay():
            backend = ScriptedBackend(rules)
            return [backend.complete(req(p)).text for p in prompts]

        assert replay() == replay() == ["r0", "rN", "rN"]

    def test_output_cap_enforced(self):
        long_text = " ".join(f"tok{i}" for i in range(500))
        backend = ScriptedBackend([ScriptedRule("", long_text)])
        response = backend.complete(req("anything", max_out=200))
        assert whitespace_token_estimate(response.text) <= 200
        assert response.text.startswith("tok0 ")

    def test_history_records_calls(self):
        backend = ScriptedBackend([ScriptedRule("", "ok")])
        backend.complete(req("p1", role="summarizer"))
        backend.complete(req("p2", role="generator"))
        assert [(i, c.role_tag) for i, c in enumerate(backend.history)] == [
            (0, "summarizer"),
            (1, "generator"),
        ]

    def test_an_unmatched_call_takes_its_position_but_is_not_listed(self):
        # Positions come from the call counter, not from len(history): the
        # failed call 0 still moves the second call to position 1.
        backend = ScriptedBackend([ScriptedRule(1, "second"), ScriptedRule("known", "ok")])
        with pytest.raises(ScriptError):
            backend.complete(req("absent"))
        assert backend.complete(req("absent")).text == "second"
        assert [c.prompt for c in backend.history] == ["absent"]


class TestLoadScript:
    def test_valid(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"match": "hello", "response": "world"})
            + "\n"
            + json.dumps({"match": 2, "response": "third"})
            + "\n"
        )
        rules = load_script(path)
        assert rules == [ScriptedRule("hello", "world"), ScriptedRule(2, "third")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_script(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("{bad json", ":1:"),
            (json.dumps({"match": "x"}), "response"),
            (json.dumps({"match": True, "response": "x"}), "match"),
            (json.dumps({"match": "x", "response": 3}), "response"),
            (json.dumps({"match": "x \ud800", "response": "y"}), ":1: 'match' holds a lone"),
            (json.dumps({"match": "x", "response": "y \ud800"}), ":1: 'response' holds a lone"),
        ],
    )
    def test_malformed(self, tmp_path, line, fragment):
        path = tmp_path / "script.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ConfigurationError, match=fragment):
            load_script(path)

    @pytest.mark.parametrize(
        "matches, message",
        [
            (["x", -1], "{path}:2: call ordinal -1 is negative"),
            ([0, 2, 0], "{path}:3: call ordinal 0 is already matched at {path}:1"),
        ],
        ids=["negative", "repeated"],
    )
    def test_an_ordinal_that_could_never_fire_is_refused(self, tmp_path, matches, message):
        path = tmp_path / "script.jsonl"
        path.write_text("".join(json.dumps({"match": m, "response": "r"}) + "\n" for m in matches))
        with pytest.raises(ConfigurationError) as excinfo:
            load_script(path)
        assert str(excinfo.value) == message.format(path=path)

    def test_a_backend_built_in_code_keeps_the_first_of_two_rules_at_one_ordinal(self):
        backend = ScriptedBackend([ScriptedRule(0, "first"), ScriptedRule(0, "second")])
        assert backend.complete(req("p")).text == "first"


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = ""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload is not None else "")

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    """Plays back a list of FakeResponse or Exception per post()."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def completion(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


class TestHttpChatBackend:
    def make(self, outcomes, endpoint="http://llm.test/v1", **kwargs):
        session = FakeSession(outcomes)
        sleeps = []
        backend = HttpChatBackend(
            endpoint=endpoint,
            model="test-model",
            api_key="secret",
            session=session,
            sleep=sleeps.append,
            **kwargs,
        )
        return backend, session, sleeps

    def test_success_and_wire_shape(self):
        backend, session, _ = self.make([FakeResponse(200, completion("hello"))])
        response = backend.complete(req("ping", role="generator"))
        assert response.text == "hello"
        call = session.calls[0]
        assert call["url"] == "http://llm.test/v1/chat/completions"
        assert call["json"]["model"] == "test-model"
        assert call["json"]["messages"] == [{"role": "user", "content": "ping"}]
        assert call["json"]["max_tokens"] == 200
        assert call["headers"]["Authorization"] == "Bearer secret"

    def test_endpoint_not_doubled(self):
        backend, session, _ = self.make(
            [FakeResponse(200, completion("x"))], endpoint="http://llm.test/v1/chat/completions"
        )
        backend.complete(req("ping"))
        assert session.calls[0]["url"] == "http://llm.test/v1/chat/completions"

    def test_retries_transient_then_succeeds(self):
        backend, session, sleeps = self.make(
            [FakeResponse(500), FakeResponse(429), FakeResponse(200, completion("ok"))]
        )
        assert backend.complete(req("ping")).text == "ok"
        assert len(session.calls) == 3
        assert sleeps == [1.0, 2.0]

    def test_a_read_timeout_retried(self):
        # ReadTimeout is a Timeout only; ConnectTimeout is also a ConnectionError.
        backend, session, sleeps = self.make(
            [requests.ReadTimeout("slow"), FakeResponse(200, completion("ok"))]
        )
        assert backend.complete(req("ping")).text == "ok"
        assert len(session.calls) == 2
        assert sleeps == [1.0]

    def test_no_key_sends_no_authorization_header(self):
        session = FakeSession([FakeResponse(200, completion("ok"))])
        backend = HttpChatBackend("http://llm.test/v1", model="m", session=session)
        backend.complete(req("ping"))
        assert session.calls[0]["headers"] == {}

    def test_the_requests_temperature_is_sent(self):
        backend, session, _ = self.make([FakeResponse(200, completion("ok"))])
        backend.complete(LlmRequest("ping", 200, temperature=0.7, role_tag="generator"))
        assert session.calls[0]["json"]["temperature"] == 0.7

    def test_exhausted_retries_surface_role(self):
        backend, session, sleeps = self.make([FakeResponse(503)] * 3)
        with pytest.raises(BackendError, match="3 attempts") as excinfo:
            backend.complete(req("ping", role="summarizer"))
        assert excinfo.value.role_tag == "summarizer"
        assert len(session.calls) == 3
        assert sleeps == [1.0, 2.0]

    def test_connection_errors_retried(self):
        backend, _, _ = self.make(
            [requests.ConnectionError("boom"), FakeResponse(200, completion("ok"))]
        )
        assert backend.complete(req("ping")).text == "ok"

    def test_a_reply_cut_off_mid_body_retried(self):
        backend, session, sleeps = self.make(
            [requests.exceptions.ChunkedEncodingError("cut"), FakeResponse(200, completion("ok"))]
        )
        assert backend.complete(req("ping")).text == "ok"
        assert len(session.calls) == 2
        assert sleeps == [1.0]

    def test_client_error_is_permanent(self):
        backend, session, sleeps = self.make([FakeResponse(404, text="missing model")])
        with pytest.raises(BackendError, match="HTTP 404: missing model"):
            backend.complete(req("ping"))
        assert len(session.calls) == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "error",
        [
            requests.exceptions.ContentDecodingError("gzip"),
            requests.TooManyRedirects("loop"),
            requests.exceptions.InvalidURL("bad url"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_other_request_errors_surface_role_without_retry(self, error):
        backend, session, sleeps = self.make([error])
        with pytest.raises(BackendError, match="request failed") as excinfo:
            backend.complete(req("ping", role="generator"))
        assert excinfo.value.role_tag == "generator"
        assert excinfo.value.__cause__ is error
        assert len(session.calls) == 1
        assert sleeps == []

    def test_malformed_body(self):
        for body in ({"unexpected": True}, completion(None), completion(["hello"])):
            backend, session, sleeps = self.make([FakeResponse(200, body)])
            with pytest.raises(BackendError, match="malformed") as excinfo:
                backend.complete(req("ping", role="summarizer"))
            assert excinfo.value.role_tag == "summarizer"
            assert len(session.calls) == 1
            assert sleeps == []

    def test_a_reply_utf8_cannot_encode(self):
        # json.loads, which requests uses, reads the escape as a lone surrogate.
        body = json.loads(b'{"choices": [{"message": {"content": "Yes. x \\ud800"}}]}')
        backend, session, _ = self.make([FakeResponse(200, body)])
        with pytest.raises(BackendError, match="lone surrogate") as excinfo:
            backend.complete(req("ping", role="reasoner"))
        assert excinfo.value.role_tag == "reasoner"
        assert len(session.calls) == 1

    def test_output_cap_applied(self):
        long_text = " ".join(f"t{i}" for i in range(400))
        backend, _, _ = self.make([FakeResponse(200, completion(long_text))])
        response = backend.complete(req("ping", max_out=50))
        assert whitespace_token_estimate(response.text) <= 50


def test_wire_requests_confined_to_gateway_modules():
    # llm.JsonEndpoint is the one HTTP client: the chat backend and the
    # embeddings client both go through it, so no other module may use
    # requests or post to a session.
    import pathlib
    import re

    import respqa

    wire = re.compile(r"\bimport requests\b|\bfrom requests\b|\brequests\.\w|\.post\(")
    root = pathlib.Path(respqa.__file__).parent
    offenders = [
        path.name
        for path in root.rglob("*.py")
        if path.name != "llm.py" and wire.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_every_private_name_is_read():
    # The project runs no linter, so this stands in for an unused-name check: a
    # private function, class, variable or attribute the package defines must
    # be read somewhere in it, as a name or an attribute.
    import ast
    import pathlib

    import respqa

    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in pathlib.Path(respqa.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, path.name)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node.ctx, ast.Store):
                    defined.setdefault(name, path.name)
                elif isinstance(node.ctx, ast.Load):
                    read.add(name)
    unread = {
        name: where
        for name, where in defined.items()
        if name.startswith("_") and name != "_" and not name.endswith("__") and name not in read
    }
    assert unread == {}


def test_text_is_checked_for_utf8_only_where_it_enters():
    # Each input is checked once, where it enters: the JSONL reader for
    # corpora, datasets and scripts, the config parsers, the CLI's question
    # and the chat reply. A loader does not check again what the reader did.
    import ast
    import inspect
    import pathlib

    import respqa
    from respqa.llm import HttpChatBackend

    def calls(source: str) -> int:
        return sum(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require_utf8"
            for node in ast.walk(ast.parse(source))
        )

    root = pathlib.Path(respqa.__file__).parent
    counts = {path.name: calls(path.read_text(encoding="utf-8")) for path in root.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {
        "jsonl.py": 1, "config.py": 1, "cli.py": 1, "llm.py": 1,
    }
    assert calls(inspect.getsource(HttpChatBackend)) == 1


def test_order_dependence_read_only_in_the_gateway():
    # BackendRouter.start is the one gate on early sends: no other module
    # may decide by itself whether a backend's calls can go ahead of time.
    import pathlib

    import respqa

    root = pathlib.Path(respqa.__file__).parent
    offenders = [
        path.name
        for path in root.rglob("*.py")
        if path.name != "llm.py" and "order_dependent" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_calls_started_ahead_only_in_agents_start():
    # PipelineAgents._start is the one place an agent call is sent ahead of
    # its use: a second path would build its request or log its prompt apart.
    import inspect
    import pathlib

    import respqa
    from respqa.agents import PipelineAgents

    root = pathlib.Path(respqa.__file__).parent
    counts = {
        path.name: path.read_text(encoding="utf-8").count("router.start(")
        for path in root.rglob("*.py")
    }
    assert {name: count for name, count in counts.items() if count} == {"agents.py": 1}
    assert "router.start(" in inspect.getsource(PipelineAgents._start)


def test_threads_started_only_in_the_gateway():
    # The early-call helpers in llm.py are the package's own threads; batch
    # parallelism goes through an executor. No other module starts one.
    import pathlib

    import respqa

    root = pathlib.Path(respqa.__file__).parent
    offenders = [
        path.name
        for path in root.rglob("*.py")
        if path.name != "llm.py" and "threading.Thread(" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_every_override_is_a_runtime_flag_dest():
    # The CLI fills CliOverrides by name from the parsed arguments, so a flag
    # whose dest is not a field, or a field no flag sets, would be dropped.
    import argparse
    import dataclasses

    from respqa import cli
    from respqa.config import CliOverrides

    fields = {field.name for field in dataclasses.fields(CliOverrides)}
    commands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for name in ("ask", "eval"):
        assert fields - {action.dest for action in commands.choices[name]._actions} == set()
    runtime = argparse.ArgumentParser(add_help=False)
    cli._add_runtime_flags(runtime)
    # --config names the file the overrides take precedence over.
    assert {action.dest for action in runtime._actions} - fields == {"config"}


@pytest.mark.parametrize("endpoint", ["http://x/v1", "http://x/v1/", "http://x/v1/embeddings"])
def test_the_path_is_appended_once(endpoint):
    url = llm.JsonEndpoint(endpoint, "/embeddings", session=FakeSession([])).url
    assert url == "http://x/v1/embeddings"


@pytest.mark.parametrize(
    "endpoint, url",
    [
        ("http://x/v1", "http://x/v1/chat/completions"),
        ("http://x/v1/", "http://x/v1/chat/completions"),
        ("http://x/v1/chat/completions", "http://x/v1/chat/completions"),
        ("http://x/v1?api-version=2024-02-01", "http://x/v1/chat/completions?api-version=2024-02-01"),
        ("http://x/v1/?api-version=1", "http://x/v1/chat/completions?api-version=1"),
        ("http://x/v1/chat/completions?api-version=1", "http://x/v1/chat/completions?api-version=1"),
    ],
)
def test_the_path_is_appended_to_the_urls_path_and_the_query_kept(endpoint, url):
    assert llm.JsonEndpoint(endpoint, "/chat/completions", session=FakeSession([])).url == url


def test_the_embeddings_timeout_is_30_seconds():
    session = FakeSession([FakeResponse(200, {"data": [{"embedding": [1.0]}]})])
    assert EmbeddingEndpointClient("http://x/v1", model="m", session=session)("ping") == [1.0]
    assert session.calls[0]["timeout"] == 30.0


class _ReplayHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next ``(status, body)``; a body that
    is not bytes is sent as JSON. A reply ``(status, body, sent)`` announces the
    whole body but writes only its first ``sent`` bytes; HTTP/1.0 then hangs up."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.received.append((self.path, dict(self.headers), body))
        status, body, *sent = self.server.replies.pop(0)
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data[: sent[0]] if sent else data)

    def log_message(self, format, *args):
        pass


class TestOverLoopback:
    """Both HTTP clients against a stdlib server on 127.0.0.1, through the
    ``requests`` session each opens; one retry policy serves both."""

    @pytest.fixture
    def server(self):
        server = http.server.HTTPServer(("127.0.0.1", 0), _ReplayHandler)
        server.replies, server.received = [], []
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.fixture(params=["chat", "embeddings"])
    def client(self, request):
        """The client kind: ``connect(url)`` builds one and gives ``(call,
        sleeps)``; ``good`` is a reply, ``result`` what ``call()`` returns for
        it, ``error`` the client's error class and ``path`` its URL path."""
        sessions = []

        def connect(url):
            sleeps = []
            if request.param == "chat":
                backend = HttpChatBackend(url, model="m", api_key="k", sleep=sleeps.append)
                sessions.append(backend._http.session)
                return (lambda: backend.complete(req("ping")).text), sleeps
            embed = EmbeddingEndpointClient(url, model="m", api_key="k", sleep=sleeps.append)
            sessions.append(embed._http.session)
            return (lambda: embed("ping")), sleeps

        if request.param == "chat":
            yield SimpleNamespace(
                connect=connect, good=completion("ok"), result="ok",
                error=BackendError, path="/v1/chat/completions",
            )
        else:
            yield SimpleNamespace(
                connect=connect, good={"data": [{"embedding": [0.5, 2]}]}, result=[0.5, 2.0],
                error=RetrieverError, path="/v1/embeddings",
            )
        for session in sessions:
            session.close()

    def url(self, server):
        return f"http://127.0.0.1:{server.server_address[1]}/v1"

    def test_a_503_is_retried(self, server, client):
        server.replies = [(503, {"error": "busy"}), (200, client.good)]
        call, sleeps = client.connect(self.url(server))
        assert call() == client.result
        assert sleeps == [1.0]
        assert len(server.received) == 2
        for path, headers, body in server.received:
            assert path == client.path
            assert headers["Content-Type"] == "application/json"
            assert headers["Authorization"] == "Bearer k"
            assert body["model"] == "m"

    def test_the_endpoints_query_reaches_the_server(self, server, client):
        server.replies = [(200, client.good)]
        call, _ = client.connect(self.url(server) + "?api-version=2024-02-01")
        assert call() == client.result
        [(path, _, _)] = server.received
        assert path == client.path + "?api-version=2024-02-01"

    def test_a_reply_cut_off_mid_body_is_retried(self, server, client):
        server.replies = [(200, client.good, 10), (200, client.good)]
        call, sleeps = client.connect(self.url(server))
        assert call() == client.result
        assert sleeps == [1.0]
        assert len(server.received) == 2

    def test_replies_all_cut_off_fail_after_every_attempt(self, server, client):
        server.replies = [(200, client.good, 10)] * 3
        call, sleeps = client.connect(self.url(server))
        with pytest.raises(client.error, match="request failed after 3 attempts"):
            call()
        assert sleeps == [1.0, 2.0]
        assert len(server.received) == 3

    @pytest.mark.parametrize(
        "status, body, fragment",
        [(400, {"error": "unknown model"}, "HTTP 400"), (200, b"not json", "malformed")],
        ids=["http-400", "body-not-json"],
    )
    def test_a_permanent_failure_is_sent_once(self, server, client, status, body, fragment):
        server.replies = [(status, body)]
        call, sleeps = client.connect(self.url(server))
        with pytest.raises(client.error, match=fragment):
            call()
        assert len(server.received) == 1
        assert sleeps == []

    def test_a_closed_port_fails_after_every_attempt(self, client):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        call, sleeps = client.connect(f"http://127.0.0.1:{port}/v1")
        with pytest.raises(client.error, match="request failed after 3 attempts"):
            call()
        assert sleeps == [1.0, 2.0]


def test_offline_modules_do_not_import_requests():
    # Only JsonEndpoint needs requests, and it imports it when built; scripted
    # runs and `respqa index` never load it.
    import os
    import pathlib
    import subprocess
    import sys

    import respqa

    src = str(pathlib.Path(respqa.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, respqa.cli, respqa.config, respqa.pipeline; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestBackendRouter:
    def test_shared_binding(self):
        backend = ScriptedBackend([ScriptedRule("", "x")])
        router = BackendRouter({role: backend for role in ROLE_TAGS})
        assert all(router.backend_for(role) is backend for role in ROLE_TAGS)

    def test_distinct_bindings_route_by_role(self):
        small = ScriptedBackend([ScriptedRule("", "from-small")], backend_id="small")
        large = ScriptedBackend([ScriptedRule("", "from-large")], backend_id="large")
        router = BackendRouter({"reasoner": small, "summarizer": small, "generator": large})
        assert router.complete(req("p", role="generator")).backend_id == "large"
        assert router.complete(req("p", role="reasoner")).backend_id == "small"

    def test_missing_role_fails_at_startup(self):
        backend = ScriptedBackend([])
        with pytest.raises(ConfigurationError, match="summarizer"):
            BackendRouter({"reasoner": backend, "generator": backend})

    def test_unknown_role_rejected(self):
        backend = ScriptedBackend([])
        bindings = {role: backend for role in ROLE_TAGS}
        bindings["oracle"] = backend
        with pytest.raises(ConfigurationError, match="oracle"):
            BackendRouter(bindings)

    def test_only_the_scripted_backend_is_order_dependent(self):
        # start sends nothing ahead for a backend that replies by call order.
        scripted = ScriptedBackend([ScriptedRule("hello", "scripted")])
        session = FakeSession([FakeResponse(200, completion("over http"))])
        http = HttpChatBackend("http://x/v1", model="m", session=session)
        router = BackendRouter({"reasoner": scripted, "summarizer": http, "generator": http})
        assert router.start(req("hello", role="reasoner")) is None
        assert scripted.history == []
        reply = router.start(req("hello", role="generator"))
        assert reply.result(timeout=5).text == "over http"
        assert len(session.calls) == 1

    def test_start_completes_on_a_helper_thread(self):
        class Recording:
            backend_id = "recording"

            def __init__(self):
                self.threads = []

            def complete(self, request):
                self.threads.append(threading.current_thread())
                if request.prompt == "fail":
                    raise BackendError("wire down", role_tag=request.role_tag)
                return LlmResponse(text=request.prompt.upper(), backend_id="recording", latency=0.0)

        backend = Recording()
        router = BackendRouter({role: backend for role in ROLE_TAGS})
        assert router.start(req("hello", role="generator")).result(timeout=5).text == "HELLO"
        with pytest.raises(BackendError, match="wire down"):
            router.start(req("fail", role="generator")).result(timeout=5)
        assert threading.current_thread() not in backend.threads
        assert all(thread.daemon for thread in backend.threads)

    def test_start_sends_nothing_when_no_thread_can_start(self, monkeypatch, thread_starts):
        monkeypatch.setattr(llm, "_HELPERS", llm._Helpers())
        thread_starts.refuse = True
        # Not order-dependent, so start reaches the helper pool.
        router, backend = capture_router()
        assert router.start(req("hello", role="generator")) is None
        assert backend.requests == []


class TestHelpers:
    """The helper threads behind BackendRouter.start, started on demand."""

    @staticmethod
    def this_thread(_):
        return threading.current_thread()

    def test_sequential_calls_reuse_one_thread(self, thread_starts):
        helpers = llm._Helpers()
        ran = [helpers.submit(self.this_thread, None).result(timeout=5) for _ in range(5)]
        assert thread_starts.threads == ran[:1] and set(ran) == set(ran[:1])
        assert ran[0].daemon

    def test_two_calls_blocked_at_once_start_exactly_two_threads(self, thread_starts):
        barrier = threading.Barrier(2, timeout=5.0)  # each call waits for the other

        def meet(_):
            barrier.wait()
            return threading.current_thread()

        helpers = llm._Helpers()
        for _ in range(3):  # the later pairs find both threads idle
            futures = [helpers.submit(meet, None) for _ in range(2)]
            ran = {future.result(timeout=5) for future in futures}
            assert len(ran) == 2 and ran == set(thread_starts.threads)

    def test_the_pool_never_outgrows_the_calls_in_flight(self, thread_starts):
        # More workers than cores, each with one call in flight at a time, and a
        # short switch interval to mix the threads.
        helpers = llm._Helpers()

        def worker(_):
            return [helpers.submit(abs, -i).result(timeout=5) for i in range(300)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(worker, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [list(range(300))] * 8
        helper_threads = [t for t in thread_starts.threads if t.name == "respqa-start"]
        assert 1 <= len(helper_threads) <= 8

    def test_a_refused_thread_queues_nothing_and_the_next_call_starts_one(
        self, thread_starts, caplog
    ):
        helpers = llm._Helpers()
        thread_starts.refuse = True
        assert helpers.submit(str.upper, "a") is None  # does not raise
        assert helpers._queue.empty() and thread_starts.threads == []
        assert "no helper thread for an early call" in caplog.text
        thread_starts.refuse = False
        assert helpers.submit(str.upper, "a").result(timeout=5) == "A"
        assert len(thread_starts.threads) == 1
        # An idle helper still serves while new threads are refused.
        thread_starts.refuse = True
        assert helpers.submit(str.upper, "b").result(timeout=5) == "B"

    def test_a_call_cancelled_before_a_helper_takes_it_is_never_run(self, thread_starts):
        helpers = llm._Helpers()
        ran = []
        thread_starts.hold = True
        cancelled = helpers.submit(ran.append, "cancelled")
        assert cancelled.cancel()
        thread_starts.begin(thread_starts.threads[0])
        assert helpers._idle.acquire(timeout=5)  # the helper skipped it and is idle again
        helpers._idle.release()
        thread_starts.hold = False
        assert helpers.submit(ran.append, "sent").result(timeout=5) is None
        assert ran == ["sent"] and len(thread_starts.threads) == 1

    def test_a_helper_outlives_a_call_that_raises_a_base_exception(self, thread_starts):
        class Stop(BaseException):
            pass

        def stop(_):
            raise Stop()

        helpers = llm._Helpers()
        assert isinstance(helpers.submit(stop, None).exception(timeout=5), Stop)
        assert helpers.submit(self.this_thread, None).result(timeout=5) is thread_starts.threads[0]
        assert len(thread_starts.threads) == 1
