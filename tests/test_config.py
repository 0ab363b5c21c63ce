import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from respqa.agents import PipelineConfig
from respqa.cli import EXIT_CONFIG, main
from respqa.config import (
    _RETRIEVER,
    ENV_API_KEY,
    ENV_ENDPOINT,
    ENV_MODEL,
    AppConfig,
    AppRuntime,
    CliOverrides,
    RetrieverConfig,
    load_app_config,
)
from respqa.errors import ConfigurationError, RetrieverError
from respqa.llm import HttpChatBackend, ScriptedBackend
from respqa.retrieval import BM25Index

from helpers import bm25_brute_force, film_corpus


@pytest.fixture
def script_path(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text(json.dumps({"match": "", "response": "ok"}) + "\n")
    return path


@pytest.fixture
def index_dir(tmp_path):
    out = tmp_path / "index"
    BM25Index.build(film_corpus()).save(out)
    return out


def write_yaml(tmp_path, data):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestPrecedence:
    def test_env_endpoint_creates_default_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_ENDPOINT, "http://env.example/v1")
        monkeypatch.setenv(ENV_MODEL, "env-model")
        config = load_app_config(None)
        assert config.backends["default"].endpoint == "http://env.example/v1"
        assert config.backends["default"].model == "env-model"
        assert set(config.roles) == {"reasoner", "summarizer", "generator"}

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_ENDPOINT, "http://env.example/v1")
        config = load_app_config(None, CliOverrides(endpoint="http://flag.example/v1"))
        assert config.backends["default"].endpoint == "http://flag.example/v1"

    def test_env_fills_file_backend_endpoint(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_ENDPOINT, "http://env.example/v1")
        path = write_yaml(tmp_path, {"backends": {"main": {"kind": "http"}}})
        config = load_app_config(path)
        assert config.backends["main"].endpoint == "http://env.example/v1"

    def test_file_endpoint_beats_env(self, tmp_path, monkeypatch):
        # flag > file > environment: the variable fills only a missing endpoint.
        monkeypatch.setenv(ENV_ENDPOINT, "http://env.example/v1")
        monkeypatch.setenv(ENV_MODEL, "env-model")
        path = write_yaml(
            tmp_path,
            {"backends": {"main": {"kind": "http", "endpoint": "http://file.example/v1",
                                   "model": "file-model"}}},
        )
        backend = load_app_config(path).backends["main"]
        assert (backend.endpoint, backend.model) == ("http://file.example/v1", "file-model")

    def test_script_flag_overrides_everything(self, tmp_path, script_path, monkeypatch):
        monkeypatch.setenv(ENV_ENDPOINT, "http://env.example/v1")
        path = write_yaml(
            tmp_path,
            {"backends": {"main": {"kind": "http", "endpoint": "http://file.example/v1"}}},
        )
        config = load_app_config(path, CliOverrides(script=str(script_path)))
        assert config.roles == {role: "scripted" for role in config.roles}
        assert config.backends["scripted"].kind == "scripted"

    def test_script_flag_takes_the_place_of_the_file_backends(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "backends": {
                    "main": {"kind": "http", "endpoint": "http://file.example/v1"},
                    "mock": {"kind": "scripted", "script": str(script_path)},
                },
                "roles": {"reasoner": "main", "summarizer": "mock", "generator": "main"},
            },
        )
        config = load_app_config(path, CliOverrides(script=str(script_path)))
        assert list(config.backends) == ["scripted"]
        assert config.roles == {role: "scripted" for role in config.roles}
        with pytest.raises(ConfigurationError, match="^--model is set, but no HTTP backend"):
            load_app_config(path, CliOverrides(script=str(script_path), model="m"))

    @pytest.mark.parametrize(
        "backend, env, refused",
        [
            ({"kind": "http"}, {}, "backend 'main' has no endpoint"),
            (
                {"kind": "http", "endpoint": "http://x/v1"},
                {ENV_API_KEY: "sk-€"},
                f"\\${ENV_API_KEY} cannot be sent",
            ),
            ({"kind": "http", "endpoint": "ftp://x"}, {}, "is not an http\\(s\\) URL"),
            ({"kind": "scripted", "script": "no/such/rules.jsonl"}, {}, "script not found"),
        ],
        ids=["no-endpoint", "unsendable-key", "bad-url", "missing-script"],
    )
    def test_script_flag_never_resolves_a_file_backend(
        self, tmp_path, script_path, monkeypatch, backend, env, refused
    ):
        # --script is decided first: a file backend it replaces is parsed, but
        # nothing it would send (endpoint, model, key, script) is read.
        monkeypatch.delenv(ENV_ENDPOINT, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = write_yaml(tmp_path, {"backends": {"main": backend}})
        config = load_app_config(path, CliOverrides(script=str(script_path)))
        assert list(config.backends) == ["scripted"]
        with pytest.raises(ConfigurationError, match=refused):
            load_app_config(path)

    @pytest.mark.parametrize(
        "backend, refused",
        [
            (
                {"kind": "http", "endpoint": "http://x/v1", "scrip": "s"},
                r"^unknown config key\(s\): backends\.main\.scrip$",
            ),
            (
                {"kind": "http", "endpoint": "http://x/v1", "api_key_env": 5},
                r"^backends\.main\.api_key_env must be a string",
            ),
            ({"kind": "scripted", "model": "m"}, r"^unknown config key\(s\): backends\.main\.model$"),
        ],
        ids=["unknown-http-key", "wrong-type", "unknown-scripted-key"],
    )
    def test_script_flag_still_parses_the_file_backends(
        self, tmp_path, script_path, backend, refused
    ):
        path = write_yaml(tmp_path, {"backends": {"main": backend}})
        with pytest.raises(ConfigurationError, match=refused):
            load_app_config(path, CliOverrides(script=str(script_path)))

    def test_flag_overrides_pipeline_settings(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "pipeline": {"top_k": 7, "max_iterations": 5},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        config = load_app_config(path, CliOverrides(top_k=2, max_iterations=1))
        assert config.pipeline.top_k == 2
        assert config.pipeline.max_iterations == 1

    @pytest.mark.parametrize(
        "in_file, flag, expected",
        [(None, False, False), (True, False, True), (False, False, False), (False, True, True)],
    )
    def test_log_prompts_from_file_and_flag(self, tmp_path, script_path, in_file, flag, expected):
        pipeline = {} if in_file is None else {"log_prompts": in_file}
        path = write_yaml(
            tmp_path,
            {
                "pipeline": pipeline,
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        config = load_app_config(path, CliOverrides(log_prompts=flag))
        assert config.pipeline.log_prompts is expected

    def test_no_backend_at_all_is_startup_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_ENDPOINT, raising=False)
        path = write_yaml(tmp_path, {"pipeline": {"top_k": 7}})
        with pytest.raises(ConfigurationError, match="backend"):
            load_app_config(path)

    def test_model_flag_overrides_file_http_backends(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "backends": {
                    "small": {"kind": "http", "endpoint": "http://x/v1", "model": "m-small"},
                    "large": {"kind": "http", "endpoint": "http://y/v1", "model": "m-large"},
                    "mock": {"kind": "scripted", "script": str(script_path)},
                },
                "roles": {"reasoner": "small", "summarizer": "mock", "generator": "large"},
            },
        )
        backends = load_app_config(path, CliOverrides(model="flag-model")).backends
        assert backends["small"].model == backends["large"].model == "flag-model"
        assert backends["mock"] == load_app_config(path).backends["mock"]
        assert backends["mock"].model is None

    def test_endpoint_flag_overrides_the_one_file_backend(self, tmp_path):
        path = write_yaml(
            tmp_path, {"backends": {"main": {"kind": "http", "endpoint": "http://file/v1"}}}
        )
        config = load_app_config(path, CliOverrides(endpoint="http://flag.example/v1"))
        assert config.backends["main"].endpoint == "http://flag.example/v1"
        assert list(config.backends) == ["main"]
        assert config.roles == {role: "main" for role in config.roles}

    def test_endpoint_flag_overrides_file_http_backends(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "backends": {
                    "small": {"kind": "http", "endpoint": "http://x/v1", "model": "m-small"},
                    "large": {"kind": "http", "endpoint": "http://y/v1"},
                    "mock": {"kind": "scripted", "script": str(script_path)},
                },
                "roles": {"reasoner": "small", "summarizer": "mock", "generator": "large"},
            },
        )
        overrides = CliOverrides(endpoint="http://flag.example/v1")
        backends = load_app_config(path, overrides).backends
        assert sorted(backends) == ["large", "mock", "small"]
        assert backends["small"].endpoint == backends["large"].endpoint == "http://flag.example/v1"
        assert backends["small"].model == "m-small"
        assert backends["mock"] == load_app_config(path).backends["mock"]

    def test_api_key_env_resolved(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MY_SECRET", "s3cret")
        path = write_yaml(
            tmp_path,
            {
                "backends": {
                    "main": {
                        "kind": "http",
                        "endpoint": "http://x/v1",
                        "api_key_env": "MY_SECRET",
                    }
                }
            },
        )
        assert load_app_config(path).backends["main"].api_key == "s3cret"


class TestApiKey:
    """A key that an HTTP header cannot carry is refused at load, by its
    variable's name; one that can, Latin-1 included, is kept as it is."""

    @staticmethod
    def load(tmp_path, script_path, where):
        """The key that an HTTP backend or an embedding retriever reads from $MY_SECRET."""
        if where == "backend":
            backend = {"kind": "http", "endpoint": "http://x/v1", "api_key_env": "MY_SECRET"}
            config = load_app_config(write_yaml(tmp_path, {"backends": {"main": backend}}))
            return config.backends["main"].api_key
        retriever = {
            "kind": "embedding",
            "endpoint": "http://emb.example/v1",
            "vectors": "vectors.jsonl",
            "api_key_env": "MY_SECRET",
        }
        backends = {"mock": {"kind": "scripted", "script": str(script_path)}}
        data = {"retriever": retriever, "backends": backends}
        return load_app_config(write_yaml(tmp_path, data)).retriever.api_key

    @pytest.mark.parametrize("key", ["sk-€", "sk-a\nb", "sk-a\rb"])
    @pytest.mark.parametrize("where", ["backend", "retriever"])
    def test_a_key_no_header_can_carry_is_refused_unquoted(
        self, tmp_path, script_path, monkeypatch, where, key
    ):
        monkeypatch.setenv("MY_SECRET", key)
        with pytest.raises(ConfigurationError) as raised:
            self.load(tmp_path, script_path, where)
        assert "$MY_SECRET cannot be sent in an HTTP header" in str(raised.value)
        assert "sk-" not in str(raised.value)

    @pytest.mark.parametrize("where", ["backend", "retriever"])
    def test_a_latin1_key_loads(self, tmp_path, script_path, monkeypatch, where):
        monkeypatch.setenv("MY_SECRET", "sk-é")
        assert self.load(tmp_path, script_path, where) == "sk-é"

    @pytest.mark.parametrize("key", ["sk-€", "sk-a\nb", "sk-ok"])
    def test_a_bm25_run_never_reads_the_key(self, tmp_path, script_path, monkeypatch, key):
        monkeypatch.setenv(ENV_API_KEY, key)
        data = {
            "retriever": {"kind": "bm25"},
            "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
        }
        assert load_app_config(write_yaml(tmp_path, data)).retriever.api_key is None


class TestValidation:
    def test_http_backend_without_endpoint(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_ENDPOINT, raising=False)
        path = write_yaml(tmp_path, {"backends": {"main": {"kind": "http"}}})
        with pytest.raises(ConfigurationError, match="endpoint"):
            load_app_config(path)

    @pytest.mark.parametrize(
        "overrides, flag",
        [
            ({"endpoint": "http://flag.example/v1"}, "--llm-endpoint"),
            ({"model": "flag-model"}, "--model"),
        ],
    )
    @pytest.mark.parametrize("script_flag", [False, True])
    def test_llm_flag_without_an_http_backend_is_refused(
        self, tmp_path, script_path, overrides, flag, script_flag
    ):
        path = write_yaml(
            tmp_path, {"backends": {"mock": {"kind": "scripted", "script": str(script_path)}}}
        )
        if script_flag:
            overrides = {**overrides, "script": str(script_path)}
        with pytest.raises(ConfigurationError, match=f"^{flag} is set, but no HTTP backend"):
            load_app_config(path, CliOverrides(**overrides))

    def test_role_bound_to_undefined_backend(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
                "roles": {"reasoner": "mock", "summarizer": "ghost", "generator": "mock"},
            },
        )
        with pytest.raises(ConfigurationError, match="ghost"):
            load_app_config(path)

    @pytest.mark.parametrize(
        "roles, message",
        [
            (
                {"reasoner": "mock", "summarizer": "mock", "generator": "mock", "critic": "mock"},
                "unknown config key(s): roles.critic",
            ),
            (["reasoner", "summarizer", "generator"], "config section 'roles' must be a mapping"),
            ({}, "no backend bound for role(s): reasoner, summarizer, generator"),
        ],
        ids=["unknown-role", "list", "empty"],
    )
    def test_roles_section_is_read_like_any_other(
        self, tmp_path, script_path, capsys, roles, message
    ):
        data = {"backends": {"mock": {"kind": "scripted", "script": str(script_path)}}}
        path = write_yaml(tmp_path, {**data, "roles": roles})
        assert main(["ask", "q?", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize(
        "section, value",
        [("pipeline", []), ("retriever", False), ("eval", 0), ("backends", 0), ("roles", [])],
    )
    def test_a_section_that_is_not_a_mapping_is_refused_however_falsy(
        self, tmp_path, script_path, capsys, section, value
    ):
        data = {"backends": {"mock": {"kind": "scripted", "script": str(script_path)}}}
        path = write_yaml(tmp_path, {**data, section: value})
        assert main(["ask", "q?", "--config", str(path)]) == EXIT_CONFIG
        message = f"configuration error: config section {section!r} must be a mapping\n"
        assert capsys.readouterr().err == message

    def test_a_null_section_means_its_defaults(self, tmp_path, script_path):
        backends = {"mock": {"kind": "scripted", "script": str(script_path)}}
        path = tmp_path / "config.yaml"
        nulls = "pipeline:\nretriever:\neval:\nroles:\n"
        path.write_text(yaml.safe_dump({"backends": backends}) + nulls)
        config = load_app_config(path)
        assert (config.pipeline, config.retriever) == (PipelineConfig(), RetrieverConfig())
        assert config.parallelism == 1 and set(config.roles.values()) == {"mock"}

    def test_multiple_backends_require_roles(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "backends": {
                    "m1": {"kind": "scripted", "script": str(script_path)},
                    "m2": {"kind": "scripted", "script": str(script_path)},
                }
            },
        )
        with pytest.raises(ConfigurationError, match="roles"):
            load_app_config(path)

    def test_missing_script_file(self, tmp_path):
        path = write_yaml(
            tmp_path,
            {"backends": {"mock": {"kind": "scripted", "script": str(tmp_path / "gone.jsonl")}}},
        )
        with pytest.raises(ConfigurationError, match="not found"):
            load_app_config(path)

    def test_unknown_retriever_kind(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "retriever": {"kind": "dense-ann"},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        with pytest.raises(ConfigurationError, match="dense-ann"):
            load_app_config(path)

    def test_bad_parallelism(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "eval": {"parallelism": 0},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        with pytest.raises(ConfigurationError, match="parallelism"):
            load_app_config(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pipeline", "generator_temperature", -1),
            ("pipeline", "generator_temperature", float("inf")),
            ("retriever", "k1", -1.0),
            ("retriever", "k1", float("nan")),
            ("retriever", "b", -0.1),
            ("retriever", "b", 3),
            ("pipeline", "generator_temperature", True),
            ("retriever", "k1", True),
            ("retriever", "b", False),
            ("retriever", "k1", "abc"),
            ("pipeline", "top_k", 0),
            ("pipeline", "max_input_tokens", 0),
            ("pipeline", "max_output_tokens", 0),
            ("eval", "parallelism", 0),
        ],
    )
    def test_out_of_range_numeric_setting(self, tmp_path, script_path, section, key, value):
        path = write_yaml(
            tmp_path,
            {
                section: {key: value},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be"):
            load_app_config(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pipeline", "generator_temperature", 0),
            ("retriever", "k1", 0.0),
            ("retriever", "b", 0),
            ("retriever", "b", 1),
        ],
    )
    def test_numeric_setting_at_its_bound(self, tmp_path, script_path, section, key, value):
        path = write_yaml(
            tmp_path,
            {
                section: {key: value},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        config = load_app_config(path)
        owner = getattr(config, section)
        assert getattr(owner, key) == value

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pipeline", "top_k", 2.7),
            ("pipeline", "max_iterations", True),
            ("pipeline", "max_input_tokens", 150.5),
            ("pipeline", "max_output_tokens", False),
            ("pipeline", "top_k", "5"),
            ("eval", "parallelism", 1.5),
            ("eval", "parallelism", True),
        ],
    )
    def test_integer_setting_must_be_an_integer(self, tmp_path, script_path, section, key, value):
        path = write_yaml(
            tmp_path,
            {
                section: {key: value},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be an integer"):
            load_app_config(path)

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"pipeline": {"log_prompts": True, "max_iteration": 1}}, "pipeline.max_iteration"),
            ({"retriever": {"kind": "bm25", "vector": "v.jsonl"}}, "retriever.vector"),
            ({"eval": {"parallelism": 2, "workers": 4}}, "eval.workers"),
            ({"pipelines": {"top_k": 3}}, "pipelines"),
            (
                {"backends": {"mock": {"kind": "scripted", "script": "s", "model": "m"}}},
                "backends.mock.model",
            ),
            (
                {"backends": {"main": {"endpoint": "http://x/v1", "script": "s"}}},
                "backends.main.script",
            ),
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, script_path, data, named):
        for spec in data.get("backends", {}).values():
            if "script" in spec:
                spec["script"] = str(script_path)
        data.setdefault("backends", {"mock": {"kind": "scripted", "script": str(script_path)}})
        with pytest.raises(ConfigurationError, match=f"unknown config key\\(s\\): {named}$"):
            load_app_config(write_yaml(tmp_path, data))

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"templates_dir": 5}, "templates_dir"),
            ({"retriever": {"index_dir": ["a"]}}, "retriever.index_dir"),
            ({"retriever": {"vectors": 5}}, "retriever.vectors"),
            ({"retriever": {"api_key_env": 5}}, "retriever.api_key_env"),
            ({"backends": {"m": {"kind": "scripted", "script": 5}}}, "backends.m.script"),
            (
                {"backends": {"m": {"endpoint": "http://x/v1", "api_key_env": 5}}},
                "backends.m.api_key_env",
            ),
        ],
    )
    def test_path_or_env_name_must_be_a_string(self, tmp_path, script_path, data, key, capsys):
        data.setdefault("backends", {"mock": {"kind": "scripted", "script": str(script_path)}})
        assert main(["ask", "q?", "--config", str(write_yaml(tmp_path, data))]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {key} must be a string")

    def test_backend_model_may_be_a_number(self, tmp_path):
        path = write_yaml(tmp_path, {"backends": {"m": {"endpoint": "http://x/v1", "model": 70}}})
        assert load_app_config(path).backends["m"].model == "70"

    @pytest.mark.parametrize("value", [["m"], {"name": "m"}, True])
    @pytest.mark.parametrize("section", ["retriever", "backend"])
    def test_model_must_be_a_scalar(self, tmp_path, script_path, section, value):
        if section == "retriever":
            data = {
                "retriever": {"model": value},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            }
            key = "retriever.model"
        else:
            data = {"backends": {"m": {"endpoint": "http://x/v1", "model": value}}}
            key = "backends.m.model"
        with pytest.raises(ConfigurationError, match=f"{key} must be a string"):
            load_app_config(write_yaml(tmp_path, data))

    def test_log_prompts_must_be_a_bool(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "pipeline": {"log_prompts": "yes please"},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        with pytest.raises(ConfigurationError, match="pipeline.log_prompts must be true or false"):
            load_app_config(path)

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"backends": {"main": {"kind": "http", "endpoint": "localhost:9/v1"}}}, "'main'"),
            ({"backends": {"main": {"kind": "http", "endpoint": "ftp://x/v1"}}}, "'main'"),
            ({"retriever": {"kind": "embedding", "endpoint": "localhost:9/v1"}}, "retriever"),
            ({"backends": {"main": {"kind": "http", "endpoint": "http://[::1"}}}, "'main'"),
        ],
    )
    def test_non_http_endpoint_in_file(self, tmp_path, script_path, data, named):
        data.setdefault("backends", {"mock": {"kind": "scripted", "script": str(script_path)}})
        with pytest.raises(ConfigurationError, match=f"{named}.*not an http"):
            load_app_config(write_yaml(tmp_path, data))

    @pytest.mark.parametrize("missing", ["endpoint", "vectors"])
    def test_embedding_retriever_settings_checked_before_the_index_opens(
        self, tmp_path, script_path, missing, monkeypatch, capsys
    ):
        retriever = {
            "kind": "embedding",
            "index_dir": str(tmp_path),
            "endpoint": "http://emb.example/v1",
            "vectors": str(tmp_path / "vectors.jsonl"),
        }
        del retriever[missing]
        backends = {"mock": {"kind": "scripted", "script": str(script_path)}}
        path = write_yaml(tmp_path, {"retriever": retriever, "backends": backends})
        opened = []
        monkeypatch.setattr(BM25Index, "open", lambda *args, **kwargs: opened.append(args))
        assert main(["ask", "q?", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"embedding retriever needs retriever.{missing}" in err
        assert opened == []

    def test_missing_templates_dir(self, tmp_path, script_path):
        path = write_yaml(
            tmp_path,
            {
                "templates_dir": str(tmp_path / "ghost-templates"),
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        with pytest.raises(ConfigurationError, match="templates"):
            load_app_config(path)


class TestAppRuntime:
    def make_config(self, tmp_path, script_path, index_dir):
        path = write_yaml(
            tmp_path,
            {
                "retriever": {"kind": "bm25", "index_dir": str(index_dir)},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
                "roles": {"reasoner": "mock", "summarizer": "mock", "generator": "mock"},
            },
        )
        return load_app_config(path)

    def test_scripted_backends_fresh_per_binding_call(self, tmp_path, script_path, index_dir):
        runtime = AppRuntime(self.make_config(tmp_path, script_path, index_dir))
        first = runtime.fresh_bindings()
        second = runtime.fresh_bindings()
        assert isinstance(first["reasoner"], ScriptedBackend)
        assert first["reasoner"] is not second["reasoner"]
        # within one run, roles sharing a backend name share the conversation
        assert first["reasoner"] is first["generator"]

    def test_http_backends_shared(self, tmp_path, index_dir, monkeypatch):
        monkeypatch.setenv(ENV_ENDPOINT, "http://env.example/v1")
        config = load_app_config(None, CliOverrides(index_dir=str(index_dir)))
        runtime = AppRuntime(config)
        first = runtime.fresh_bindings()
        second = runtime.fresh_bindings()
        assert isinstance(first["reasoner"], HttpChatBackend)
        assert first["reasoner"] is second["reasoner"]

    @staticmethod
    def embedding_retriever(tmp_path, index_dir, **settings):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text(
            "".join(
                json.dumps({"id": doc.doc_id, "vector": [1.0, float(i)]}) + "\n"
                for i, doc in enumerate(film_corpus())
            )
        )
        return {
            "kind": "embedding",
            "index_dir": str(index_dir),
            "endpoint": "http://emb.example/v1",
            "vectors": str(vectors),
            **settings,
        }

    def test_connection_pools_follow_parallelism(self, tmp_path, index_dir, monkeypatch):
        # Fewer pooled connections than workers makes urllib3 drop connections
        # and log "Connection pool is full".
        retriever = self.embedding_retriever(tmp_path, index_dir)
        monkeypatch.setenv(ENV_ENDPOINT, "http://env.example/v1")
        path = write_yaml(tmp_path, {"retriever": retriever, "eval": {"parallelism": 16}})
        runtime = AppRuntime(load_app_config(path))
        # A question can have two chat requests in flight (run_resp's last round).
        sessions = {
            "http://env.example/v1/chat/completions": (
                runtime.fresh_bindings()["reasoner"]._http.session, 32
            ),
            "http://emb.example/v1/embeddings": (runtime.retriever._embed._http.session, 16),
        }
        for url, (session, size) in sessions.items():
            for scheme_url in (url, url.replace("http:", "https:")):
                pool = session.get_adapter(scheme_url).poolmanager.connection_pool_kw
                assert pool["maxsize"] == size

    def test_retriever_model_is_sent_as_text(self, tmp_path, index_dir, script_path):
        retriever = self.embedding_retriever(tmp_path, index_dir, model=70)
        backends = {"mock": {"kind": "scripted", "script": str(script_path)}}
        path = write_yaml(tmp_path, {"retriever": retriever, "backends": backends})
        runtime = AppRuntime(load_app_config(path))
        sent = []

        class Refusing:
            """Answers HTTP 400, which is not retried."""

            def post(self, url, json, headers, timeout):
                sent.append(json)
                return SimpleNamespace(status_code=400, text="unknown model")

        runtime.retriever._embed._http.session = Refusing()
        with pytest.raises(RetrieverError, match="HTTP 400"):
            runtime.retriever.retrieve("Twisted Fortune", 1)
        assert sent == [{"model": "70", "input": ["Twisted Fortune"]}]

    def test_the_embedding_client_sends_the_key(self, tmp_path, index_dir, script_path, monkeypatch):
        monkeypatch.setenv(ENV_API_KEY, "sk-emb")
        retriever = self.embedding_retriever(tmp_path, index_dir)
        backends = {"mock": {"kind": "scripted", "script": str(script_path)}}
        path = write_yaml(tmp_path, {"retriever": retriever, "backends": backends})
        runtime = AppRuntime(load_app_config(path))
        sent = []

        class Refusing:
            def post(self, url, json, headers, timeout):
                sent.append(headers)
                return SimpleNamespace(status_code=400, text="unknown model")

        runtime.retriever._embed._http.session = Refusing()
        with pytest.raises(RetrieverError, match="HTTP 400"):
            runtime.retriever.retrieve("Twisted Fortune", 1)
        assert sent == [{"Authorization": "Bearer sk-emb"}]

    def test_k1_and_b_reach_the_retriever(self, tmp_path, script_path, index_dir):
        path = write_yaml(
            tmp_path,
            {
                "retriever": {"index_dir": str(index_dir), "k1": 0.9, "b": 0.4},
                "backends": {"mock": {"kind": "scripted", "script": str(script_path)}},
            },
        )
        retriever = AppRuntime(load_app_config(path)).retriever
        for query in ("Twisted Fortune", "Eddie Murphy brother", "comedy director"):
            expected = bm25_brute_force(film_corpus(), query, 5, 0.9, 0.4)
            hits = retriever.retrieve(query, 5)
            assert [(h.doc_id, pytest.approx(h.score, abs=1e-9)) for h in hits] == expected
            assert expected != bm25_brute_force(film_corpus(), query, 5)

    def test_runner_rejects_unknown_pipeline(self, tmp_path, script_path, index_dir):
        runtime = AppRuntime(self.make_config(tmp_path, script_path, index_dir))
        with pytest.raises(ConfigurationError, match="pipeline"):
            runtime.runner(pipeline="fancy")


def readme_configuration_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_configuration_example_loads(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(readme_configuration_example(), encoding="utf-8")
    config = load_app_config(path)
    assert config.pipeline == PipelineConfig()
    assert config.roles == {"reasoner": "small", "summarizer": "small", "generator": "large"}
    assert config.parallelism == 4


class TestYamlLoaders:
    """The file is parsed by libyaml where PyYAML has it, by PyYAML's own
    parser where it has not, and both read it alike."""

    @staticmethod
    def configs(script_path, index_dir) -> list[str]:
        scripted = {
            "pipeline": {"top_k": 3, "max_iterations": 2, "generator_temperature": 0.5},
            "retriever": {"kind": "bm25", "index_dir": str(index_dir), "k1": 0.9, "b": 0.4},
            "backends": {"sim": {"kind": "scripted", "script": str(script_path)}},
            "roles": {"reasoner": "sim", "summarizer": "sim", "generator": "sim"},
            "eval": {"parallelism": 2},
        }
        hand_written = (
            "# an anchor, a merge key, flow style, quoting and a non-ASCII value\n"
            "backends:\n"
            "  a: &http {kind: http, endpoint: 'http://localhost:8000/v1', model: \"70\"}\n"
            "  b:\n"
            "    <<: *http\n"
            "    model: modèle-ünïcode\n"
            "roles: {reasoner: a, summarizer: a, generator: b}\n"
            "templates_dir: null\n"
            "pipeline: {log_prompts: yes, max_input_tokens: 0x1000}\n"
        )
        return [readme_configuration_example(), yaml.safe_dump(scripted), hand_written]

    def test_both_loaders_give_one_config(self, tmp_path, script_path, index_dir, monkeypatch):
        if not getattr(yaml, "__with_libyaml__", False):
            pytest.skip("PyYAML was built without libyaml")
        parsed = []

        class CountingLoader(yaml.CSafeLoader):
            def __init__(self, stream):
                parsed.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(yaml, "CSafeLoader", CountingLoader)
        texts = self.configs(script_path, index_dir)
        paths = []
        for number, text in enumerate(texts):
            paths.append(tmp_path / f"config{number}.yaml")
            paths[-1].write_text(text, encoding="utf-8")
        with_libyaml = [load_app_config(path) for path in paths]
        assert parsed == texts
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert [load_app_config(path) for path in paths] == with_libyaml
        assert len(parsed) == len(texts)

    @pytest.mark.parametrize("libyaml", [True, False])
    @pytest.mark.parametrize(
        "text", ["pipeline: [unclosed\n", "a: 1\n\tb: 2\n", "a: \x07\n", "a: *nope\n", "a: 1\n---\nb: 2\n"]
    )
    def test_bad_yaml_exits_2(self, tmp_path, monkeypatch, capsys, libyaml, text):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not getattr(yaml, "__with_libyaml__", False):
            pytest.skip("PyYAML was built without libyaml")
        path = tmp_path / "config.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["ask", "q?", "--config", str(path)]) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("libyaml", [True, False])
    @pytest.mark.parametrize("key", ["model", "vectors", "api_key_env"])
    def test_a_lone_surrogate_exits_2(
        self, tmp_path, script_path, index_dir, monkeypatch, capsys, libyaml, key
    ):
        # A model name, a path and an environment variable's name: each a "\ud800"
        # escape, which UTF-8 cannot encode. The file is otherwise good.
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not getattr(yaml, "__with_libyaml__", False):
            pytest.skip("PyYAML was built without libyaml")
        path = tmp_path / "config.yaml"
        path.write_text(
            f"retriever: {{index_dir: {json.dumps(str(index_dir))}, {key}: \"x\\ud800\"}}\n"
            f"backends: {{sim: {{kind: scripted, script: {json.dumps(str(script_path))}}}}}\n",
            encoding="utf-8",
        )
        assert main(["ask", "q?", "--config", str(path)]) == EXIT_CONFIG
        assert (str(path) if libyaml else f"retriever.{key}") in capsys.readouterr().err


def test_one_field_per_section_and_one_name_per_key():
    # The project runs no linter, so this pins the config's shape: the
    # retriever's record holds each key of its table under the key's own name,
    # and AppConfig holds one field per section.
    fields = dataclasses.fields(RetrieverConfig)
    assert set(_RETRIEVER) == {field.name for field in fields if field.init}
    assert [field.name for field in dataclasses.fields(AppConfig)] == [
        "pipeline", "retriever", "backends", "roles", "templates_dir", "parallelism",
    ]
