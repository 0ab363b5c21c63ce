import json

import pytest
import requests

from respqa.errors import BackendError, ConfigurationError, ScriptError
from respqa.llm import (
    ROLE_TAGS,
    BackendRouter,
    HttpChatBackend,
    LlmRequest,
    ScriptedBackend,
    ScriptedRule,
    load_script,
    truncate_to_token_estimate,
    whitespace_token_estimate,
)


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
        assert [(c.position, c.role_tag) for c in backend.history] == [
            (0, "summarizer"),
            (1, "generator"),
        ]


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
        ],
    )
    def test_malformed(self, tmp_path, line, fragment):
        path = tmp_path / "script.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ConfigurationError, match=fragment):
            load_script(path)


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
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def completion(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


class TestHttpChatBackend:
    def make(self, outcomes, **kwargs):
        session = FakeSession(outcomes)
        sleeps = []
        backend = HttpChatBackend(
            endpoint="http://llm.test/v1",
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
        backend, session, _ = self.make([FakeResponse(200, completion("x"))])
        backend.endpoint = "http://llm.test/v1/chat/completions"
        backend.complete(req("ping"))
        assert session.calls[0]["url"] == "http://llm.test/v1/chat/completions"

    def test_retries_transient_then_succeeds(self):
        backend, session, sleeps = self.make(
            [FakeResponse(500), FakeResponse(429), FakeResponse(200, completion("ok"))]
        )
        assert backend.complete(req("ping")).text == "ok"
        assert len(session.calls) == 3
        assert sleeps == [1.0, 2.0]

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

    def test_client_error_is_permanent(self):
        backend, session, sleeps = self.make([FakeResponse(404, text="missing model")])
        with pytest.raises(BackendError, match="404"):
            backend.complete(req("ping"))
        assert len(session.calls) == 1
        assert sleeps == []

    def test_malformed_body(self):
        backend, _, _ = self.make([FakeResponse(200, {"unexpected": True})])
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(req("ping"))

    def test_output_cap_applied(self):
        long_text = " ".join(f"t{i}" for i in range(400))
        backend, _, _ = self.make([FakeResponse(200, completion(long_text))])
        response = backend.complete(req("ping", max_out=50))
        assert whitespace_token_estimate(response.text) <= 50


def test_wire_requests_confined_to_gateway_modules():
    # Completion traffic goes through complete(); the embedding client in
    # retrieval.py is the only other module allowed near the wire.
    import pathlib

    import respqa

    root = pathlib.Path(respqa.__file__).parent
    offenders = []
    for path in root.rglob("*.py"):
        if path.name in {"llm.py", "retrieval.py"}:
            continue
        text = path.read_text(encoding="utf-8")
        if "import requests" in text or "requests.post" in text or "requests.Session" in text:
            offenders.append(path.name)
    assert offenders == []


def test_offline_modules_do_not_import_requests():
    # Only the HTTP backend and the embedding client need requests, and they
    # import it when built; scripted runs and `respqa index` never load it.
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
