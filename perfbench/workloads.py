"""The benchmark's workloads, their phases, metrics and output checks.

Every workload runs the same phases in one process:

1. generate the seeded inputs (not timed);
2. index: ``respqa index`` through ``cli.main`` (``cli.index_s``);
3. set-up: ``load_app_config`` + ``AppRuntime`` (+ vectors and the dense
   retriever), repeated, median reported (``setup_s``);
4. questions: closed loop through ``evaluate``/``sweep_k`` for the run's
   seconds, whole batches only;
5. ``peak_rss_mb``: a fresh process that only sets up and answers a few
   questions (``rss.py``), so the generator's and the checks' memory stay out;
6. checks against the generator's expectations and reference rankers.

``--trace 1`` repeats phase 4 with every layer instrumented (``spans.py``)
and reports per-layer self times instead of the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

import respqa.cli
from respqa.config import AppRuntime, load_app_config
from respqa.evaluation import QAExample, evaluate, load_dataset
from respqa.retrieval import BM25Index, EmbeddingRetriever, load_vectors, read_corpus
from respqa.pipeline import sweep_k

from .gen import GenParams, World, make_world, write_world
from .oracles import BruteBM25, brute_cosine, same_ranking
from .simllm import SimulatedLLM, question_chain
from .spans import AGENT_METHODS, SpanTree, Tracer, instrument

_clock = time.perf_counter

STOPS = ("judged_sufficient", "max_iterations", "duplicate_plan")
ROLES = ("reasoner", "summarizer", "generator")
SWEEP_K = (2, 5, 10, 20, 40)
# Set-up is timed in three windows spread over an untraced run: before
# the questions, after them and after the checks. The machine's
# speed switches on a scale of seconds, so one window reads one speed.
# Each window repeats set-up until it has run SETUP_MIN_REPS times and
# SETUP_BUDGET_S seconds (at most SETUP_MAX_REPS times); setup_s is the
# median over all windows.
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 20
SETUP_BUDGET_S = 1.0
MIN_QUESTIONS = 200  # so that p95 keeps >= 10 samples beyond it
RSS_QUESTIONS = 20  # questions the peak-RSS process answers per pipeline
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: GenParams
    pipelines: tuple[str, ...]
    k_values: tuple[int, ...]
    workers: int
    latency_s: float  # simulated LLM: fixed part of every call
    per_token_s: float  # simulated LLM: per estimated prompt token
    retriever: str = "bm25"  # or "dense"
    max_input_tokens: int = 4000


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="resp_multihop",
            why=(
                "run_resp via evaluate, 2 workers, 1k-doc BM25, LLM 20 ms + 10 us/token: "
                "LLM wait and the loop dominate, BM25 retrieve is ~4% of question time"
            ),
            gen=GenParams(n_docs=1000, n_questions=100),
            pipelines=("resp",),
            k_values=(5,),
            workers=2,
            latency_s=0.020,
            per_token_s=0.00001,
        ),
        Workload(
            name="rag_sweep",
            why=(
                "sweep_k over resp and standard at k 2-40, 5k-doc BM25, 1 worker, LLM 0 ms + "
                "40 us/token, cap binds from k=20: prompt size and BM25 top-k (~25%) set the cost"
            ),
            # 40% 3-hop: the 3-round resp questions at the capped k (20, 40)
            # are then 8% of a sweep, so the nearest-rank p95 falls inside
            # that group, not on its edge (at 25% 3-hop they are exactly 5%).
            gen=GenParams(n_docs=5000, n_questions=20, hop_mix=(0.2, 0.4, 0.4)),
            pipelines=("resp", "standard"),
            k_values=SWEEP_K,
            workers=1,
            latency_s=0.0,
            per_token_s=0.00004,
            max_input_tokens=2000,
        ),
        Workload(
            name="dense_multihop",
            why=(
                "run_resp over EmbeddingRetriever, 1k docs x 384-d from load_vectors, "
                "2 workers, LLM 20 ms + 10 us/token: dense retrieve is ~26% of question time"
            ),
            gen=GenParams(n_docs=1000, n_questions=100, embed_dim=384),
            pipelines=("resp",),
            k_values=(5,),
            workers=2,
            latency_s=0.020,
            per_token_s=0.00001,
            retriever="dense",
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("questions_per_s", "1/s"),
    ("question_p50_ms", "ms"),
    ("question_p95_ms", "ms"),
    ("llm_calls_per_question", "count"),
    ("prompt_tokens_per_question", "tokens"),
    ("generator_prompt_tokens", "tokens"),
    ("mean_f1", "ratio"),
    ("peak_rss_mb", "MB"),
    ("index_bytes_per_doc", "B"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names = [
        ("retrieval.bm25_retrieve_ms_p50", "ms"),
        ("retrieval.bm25_retrieve_ms_p95", "ms"),
        ("retrieval.bm25_retrieve_calls", "count/q"),
        ("retrieval.hits_per_k", "ratio"),
        ("retrieval.dense_retrieve_ms_p50", "ms"),
        ("retrieval.dense_retrieve_ms_p95", "ms"),
        ("retrieval.read_corpus_s", "s"),
        ("retrieval.tokenize_us_per_doc", "us"),
        ("retrieval.build_s", "s"),
        ("retrieval.save_s", "s"),
        ("retrieval.open_s", "s"),
        ("retrieval.load_vectors_s", "s"),
        ("retrieval.dense_init_s", "s"),
    ]
    names += [(f"llm.calls.{role}", "count/q") for role in ROLES]
    names += [(f"llm.prompt_tokens.{role}", "tokens/q") for role in ROLES]
    names += [("llm.wait_ms", "ms"), ("llm.gateway_overhead_us", "us")]
    names += [(f"agents.{m}.self_ms", "ms") for m in AGENT_METHODS]
    names += [
        ("agents.assemble_prompt_ms", "ms"),
        ("agents.docs_kept_ratio", "ratio"),
        ("agents.plan_retries", "count/q"),
        ("memory.render_calls", "count/q"),
        ("memory.render_us", "us"),
        ("pipeline.rounds_per_question", "count"),
    ]
    names += [(f"pipeline.stop.{stop}", "ratio") for stop in STOPS]
    names += [("pipeline.loop_self_ms", "ms")]
    names += [
        (f"pipeline.generator_prompt_tokens.{p}.k{k}", "tokens")
        for p in ("resp", "standard")
        for k in SWEEP_K
    ]
    names += [
        ("evaluation.worker_busy_share", "ratio"),
        ("evaluation.score_us", "us"),
        ("config.load_s", "s"),
        ("config.runtime_init_s", "s"),
        ("config.fresh_bindings_us", "us"),
        ("cli.index_s", "s"),
        ("cli.index_self_ms", "ms"),
        ("trace.overhead_share", "ratio"),
        ("trace.unaccounted_share", "ratio"),
    ]
    return names


class BenchRuntime(AppRuntime):
    """The product runtime with every role bound to the simulated LLM.

    The product still builds its own per-question bindings (so their cost
    stays in the measurement); each is then replaced by the simulation.
    """

    def __init__(self, config, llm: SimulatedLLM) -> None:
        super().__init__(config)
        self.llm = llm

    def fresh_bindings(self):
        return {role: self.llm for role in super().fresh_bindings()}


class TimedEmbed:
    """The embedding callable, recorded as an external span when traced."""

    def __init__(self, embed) -> None:
        self.embed = embed
        self.tracer: Tracer | None = None

    def __call__(self, text: str) -> list[float]:
        if self.tracer is None:
            return self.embed(text)
        start = _clock()
        vector = self.embed(text)
        self.tracer.record("ext.embed", start, _clock())
        return vector


@dataclass
class QuestionRecord:
    pipeline: str
    k: int
    qid: str
    seconds: float
    answer: str
    rounds: int
    stop: str
    generator_tokens: float


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def beyond_p95(n: int) -> int:
    return n - math.ceil(0.95 * n)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Run:
    """One invocation: a workload at a seed for a number of seconds."""

    def __init__(self, wl: Workload, seed: int, seconds: float, workdir: Path) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.problems: list[str] = []
        self.llm = SimulatedLLM(wl.latency_s, wl.per_token_s)
        self.embed: TimedEmbed | None = None

    # -- phases -----------------------------------------------------------

    def prepare(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.world: World = make_world(self.wl.gen, self.seed)
        self.paths = write_world(self.world, self.workdir / "inputs")
        self.examples: list[QAExample] = load_dataset(self.paths["dataset"])
        self.qids = {ex.question: ex.example_id for ex in self.examples}
        if self.wl.retriever == "dense":
            self.embed = TimedEmbed(self.world.embedder)

    def index_phase(self, tracer: Tracer | None = None) -> dict:
        self.index_dir = self.workdir / "index"
        out = io.StringIO()
        t0 = _clock()
        with _span(tracer, "cli.index"), contextlib.redirect_stdout(out):
            code = respqa.cli.main(["index", str(self.paths["corpus"]), "--out", str(self.index_dir)])
        index_s = _clock() - t0
        if code != 0 or f"indexed {self.wl.gen.n_docs} documents" not in out.getvalue():
            self.problems.append(f"respqa index exited {code}: {out.getvalue().strip()!r}")
        size = sum(p.stat().st_size for p in self.index_dir.iterdir() if p.is_file())
        return {"index_s": index_s, "index_bytes_per_doc": size / self.wl.gen.n_docs}

    def _config_path(self) -> Path:
        script = self.workdir / "no_rules.jsonl"
        script.write_text("", encoding="utf-8")
        config = {
            "pipeline": {
                "top_k": self.wl.k_values[0],
                "max_iterations": 3,
                "max_input_tokens": self.wl.max_input_tokens,
                "max_output_tokens": 64,
            },
            "retriever": {"kind": "bm25", "index_dir": str(self.index_dir)},
            "backends": {"sim": {"kind": "scripted", "script": str(script)}},
            "roles": {role: "sim" for role in ROLES},
            "eval": {"parallelism": self.wl.workers},
        }
        path = self.workdir / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        return path

    def setup_phase(self, tracer: Tracer | None = None) -> list[float]:
        """One window of set-up repetitions; returns their times."""
        config_path = self._config_path()
        times: list[float] = []
        start = _clock()
        while len(times) < SETUP_MIN_REPS or (
            _clock() - start < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS
        ):
            # Each repetition starts from the same heap: the previous runtime
            # and its garbage are gone before the clock starts.
            self.runtime = runtime = vectors = None
            gc.collect()
            t0 = _clock()
            with _span(tracer, "config.load"):
                config = load_app_config(config_path)
            with _span(tracer, "config.runtime_init"):
                runtime = BenchRuntime(config, self.llm)
            if self.wl.retriever == "dense":
                with _span(tracer, "retrieval.load_vectors"):
                    vectors = load_vectors(self.paths["vectors"])
                with _span(tracer, "retrieval.dense_init"):
                    runtime.retriever = EmbeddingRetriever(
                        runtime.retriever.documents, vectors, self.embed
                    )
            times.append(_clock() - t0)
            self.runtime = runtime
        return times

    def question_phase(self, tracer: Tracer | None = None) -> dict:
        wl, runtime = self.wl, self.runtime
        if self.embed is not None:
            self.embed.tracer = tracer
        self.llm.on_call = (lambda s, e: tracer.record("ext.llm", s, e)) if tracer else None
        self.llm.reset_counts()
        records: list[QuestionRecord] = []
        reports: list[tuple[str, int, int, float, int]] = []  # pipeline, k, n, mean_f1, errors

        def timed(run, pipeline: str, k: int):
            def call(question: str):
                qid = self.qids[question]
                if tracer is not None:
                    tracer.qid = qid
                t0 = _clock()
                with _span(tracer, "question"):
                    trace = run(question)
                seconds = _clock() - t0
                records.append(
                    QuestionRecord(pipeline, k, qid, seconds, trace.final_answer,
                                   len(trace.iterations), trace.stop_reason,
                                   trace.generator_prompt_tokens)
                )
                return trace

            return call

        wall = 0.0
        start = _clock()
        while True:
            for pipeline in wl.pipelines:
                t0 = _clock()
                with _span(tracer, "evaluation.batch"):
                    if len(wl.k_values) == 1:
                        k = wl.k_values[0]
                        report = evaluate(
                            timed(runtime.runner(pipeline, top_k=k), pipeline, k),
                            self.examples,
                            parallelism=wl.workers,
                        )
                        reports.append((pipeline, k, report.n, report.mean_f1, report.errors))
                    else:
                        rows = sweep_k(
                            self.examples,
                            wl.k_values,
                            pipeline,
                            make_runner=lambda k, p=pipeline: timed(runtime.runner(p, top_k=k), p, k),
                            parallelism=wl.workers,
                        )
                        reports += [(r.pipeline, r.k, r.n, r.mean_f1, r.errors) for r in rows]
                wall += _clock() - t0
            elapsed = _clock() - start
            if elapsed >= self.seconds and len(records) >= MIN_QUESTIONS:
                break
        if self.embed is not None:
            self.embed.tracer = None
        self.llm.on_call = None
        return {
            "records": records,
            "reports": reports,
            "wall": wall,
            "calls": dict(self.llm.calls),
            "prompt_tokens": dict(self.llm.prompt_tokens),
        }

    def rss_phase(self) -> float:
        """Peak RSS (MB) of a fresh process that sets up and answers the
        first RSS_QUESTIONS questions at the largest k, without LLM latency
        (see ``rss.py``)."""
        spec = {
            "config": str(self._config_path()),
            "dataset": str(self.paths["dataset"]),
            "questions": RSS_QUESTIONS,
            "pipelines": list(self.wl.pipelines),
            "k": max(self.wl.k_values),
            "workers": self.wl.workers,
            "vectors": str(self.paths["vectors"]) if self.embed is not None else None,
            "embed_dim": self.wl.gen.embed_dim,
            "embed_stop": sorted(self.embed.embed.stop) if self.embed is not None else [],
        }
        spec_path = self.workdir / "rss_spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.rss", str(spec_path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
            )
        except subprocess.TimeoutExpired:
            self.problems.append("peak RSS process did not finish within 150 s")
            return 0.0
        if proc.returncode != 0:
            self.problems.append(f"peak RSS process exited {proc.returncode}: {proc.stderr[-300:]!r}")
            return 0.0
        return float(proc.stdout.split()[-1])

    # -- checks -----------------------------------------------------------

    def expected_f1(self, pipeline: str) -> float:
        """Mean F1 the simulated LLM must reach: exact answers score 1, the
        unresolved answer 'unknown' scores 0 (it shares no token with a name)."""
        key = "resp_answer" if pipeline == "resp" else "standard_answer"
        hits = sum(
            1 for ex in self.examples
            if getattr(self.world.expected[ex.example_id], key) == ex.golden_answers[0]
        )
        return hits / len(self.examples)

    def check_answers(self, phase: dict) -> None:
        exact_trajectory = self.wl.retriever == "bm25"
        for rec in phase["records"]:
            exp = self.world.expected[rec.qid]
            want = exp.resp_answer if rec.pipeline == "resp" else exp.standard_answer
            if rec.answer != want:
                self.problems.append(
                    f"{rec.pipeline} k={rec.k} {rec.qid}: answer {rec.answer!r}, expected {want!r}"
                )
            elif rec.pipeline == "resp" and exact_trajectory and (
                rec.rounds != exp.resp_rounds or rec.stop != exp.resp_stop
            ):
                self.problems.append(
                    f"{rec.qid}: {rec.rounds} rounds/{rec.stop}, "
                    f"expected {exp.resp_rounds}/{exp.resp_stop}"
                )
        for pipeline, k, n, mean_f1, errors in phase["reports"]:
            want = self.expected_f1(pipeline)
            if errors or abs(mean_f1 - want) > 1e-12:
                self.problems.append(
                    f"{pipeline} k={k}: mean_f1 {mean_f1!r} (expected {want!r}), {errors} errors of {n}"
                )

    def check_parallel_determinism(self, phase: dict) -> None:
        """Answers at the other worker count (1 <-> 2) must be identical."""
        other = 1 if self.wl.workers > 1 else 2
        latency = (self.llm.latency_s, self.llm.per_token_s)
        self.llm.latency_s = self.llm.per_token_s = 0.0  # replies do not depend on it
        try:
            for pipeline in self.wl.pipelines:
                k = 5 if 5 in self.wl.k_values else self.wl.k_values[0]
                report = evaluate(self.runtime.runner(pipeline, top_k=k), self.examples,
                                  parallelism=other)
                again = {row.example_id: row.prediction for row in report.rows}
                for rec in phase["records"]:
                    if rec.pipeline == pipeline and rec.k == k and again[rec.qid] != rec.answer:
                        self.problems.append(
                            f"{pipeline} {rec.qid}: {again[rec.qid]!r} at {other} workers, "
                            f"{rec.answer!r} at {self.wl.workers}"
                        )
                        break
        finally:
            self.llm.latency_s, self.llm.per_token_s = latency

    def _sample_queries(self, n: int = 8) -> list[str]:
        """Questions, their first-hop sub-questions, and corpus snippets."""
        queries = []
        for ex in self.examples[:n]:
            head, relations = question_chain(ex.question)
            queries += [ex.question, f"What is the {relations[0]} of {head}?"]
        queries += [" ".join(row["contents"].split()[:4]) for row in self.world.corpus[:n]]
        return queries

    def check_retrieval(self) -> None:
        k = max(self.wl.k_values)
        queries = self._sample_queries()
        if self.wl.retriever == "dense":
            for query in queries:
                got = [(h.doc_id, h.score) for h in self.runtime.retriever.retrieve(query, k)]
                want = brute_cosine(self.world.vectors, self.embed.embed(query), k)
                if not same_ranking(got, want, float_ties=True):
                    self.problems.append(f"dense top-{k} differs from brute-force cosine for {query!r}")
            return
        oracle = BruteBM25(self.world.corpus)
        fresh = BM25Index.build(read_corpus(self.paths["corpus"]))
        for query in queries:
            got = [(h.doc_id, h.score) for h in self.runtime.retriever.retrieve(query, k)]
            if not same_ranking(got, oracle.top(query, k)):
                self.problems.append(f"BM25 top-{k} differs from brute force for {query!r}")
            built = [(h.doc_id, h.score) for h in fresh.retrieve(query, k)]
            if built != got:
                self.problems.append(f"reopened index ranks {query!r} unlike the fresh build")


def end_to_end(index: dict, setup_s: float, phase: dict, rss_mb: float) -> dict:
    records = phase["records"]
    n = len(records)
    latencies = [r.seconds for r in records]
    return {
        "setup_s": setup_s,
        "questions_per_s": n / phase["wall"],
        "question_p50_ms": 1000.0 * statistics.median(latencies),
        "question_p95_ms": 1000.0 * nearest_rank(latencies, 0.95),
        "llm_calls_per_question": sum(phase["calls"].values()) / n,
        "prompt_tokens_per_question": sum(phase["prompt_tokens"].values()) / n,
        "generator_prompt_tokens": _mean(r.generator_tokens for r in records),
        "mean_f1": sum(nq * f1 for _, _, nq, f1, _ in phase["reports"])
        / sum(nq for _, _, nq, _, _ in phase["reports"]),
        "peak_rss_mb": rss_mb,
        "index_bytes_per_doc": index["index_bytes_per_doc"],
    }


def per_layer(
    run: Run, index_tracer: Tracer, setup_tracer: Tracer, q_tracer: Tracer, phase: dict, plain: dict
) -> tuple[dict, dict]:
    """Per-layer metrics from the traced phases; second value: bases."""
    records = phase["records"]
    n = len(records)
    tree = SpanTree(q_tracer.spans)
    itree = SpanTree(index_tracer.spans)
    stree = SpanTree(setup_tracer.spans)
    m: dict[str, float] = {}

    def per_call_ms(name: str) -> list[float]:
        return [1000.0 * tree.without_external(s) for s in tree.named(name)]

    bm25 = per_call_ms("retrieval.bm25_retrieve")
    dense = per_call_ms("retrieval.dense_retrieve")
    m["retrieval.bm25_retrieve_ms_p50"] = _median(bm25)
    m["retrieval.bm25_retrieve_ms_p95"] = nearest_rank(bm25, 0.95)
    m["retrieval.bm25_retrieve_calls"] = len(bm25) / n
    retrieves = tree.named("retrieval.bm25_retrieve") + tree.named("retrieval.dense_retrieve")
    asked = sum(s[6]["k"] for s in retrieves)
    m["retrieval.hits_per_k"] = sum(s[6]["hits"] for s in retrieves) / asked if asked else 0.0
    m["retrieval.dense_retrieve_ms_p50"] = _median(dense)
    m["retrieval.dense_retrieve_ms_p95"] = nearest_rank(dense, 0.95)

    builds = itree.named("retrieval.build")
    tokenize_by_build: dict[int, float] = {}
    for s in itree.named("retrieval.tokenize"):
        tokenize_by_build[s[1]] = tokenize_by_build.get(s[1], 0.0) + (s[4] - s[3])
    m["retrieval.read_corpus_s"] = _median(s[4] - s[3] for s in itree.named("retrieval.read_corpus"))
    m["retrieval.tokenize_us_per_doc"] = _median(
        1e6 * tokenize_by_build.get(b[0], 0.0) / run.wl.gen.n_docs for b in builds
    )
    m["retrieval.build_s"] = _median(itree.self_time(b) for b in builds)
    m["retrieval.save_s"] = _median(s[4] - s[3] for s in itree.named("retrieval.save"))
    m["retrieval.open_s"] = _median(s[4] - s[3] for s in stree.named("retrieval.open"))
    m["retrieval.load_vectors_s"] = _median(s[4] - s[3] for s in stree.named("retrieval.load_vectors"))
    m["retrieval.dense_init_s"] = _median(s[4] - s[3] for s in stree.named("retrieval.dense_init"))

    routers = tree.named("llm.router")
    for role in ROLES:
        m[f"llm.calls.{role}"] = sum(1 for s in routers if s[6]["role"] == role) / n
    for role in ROLES:
        m[f"llm.prompt_tokens.{role}"] = phase["prompt_tokens"].get(role, 0.0) / n
    m["llm.wait_ms"] = _mean(1000.0 * (s[4] - s[3]) for s in routers)
    m["llm.gateway_overhead_us"] = _mean(1e6 * tree.without_external(s) for s in routers)

    for method in AGENT_METHODS:
        m[f"agents.{method}.self_ms"] = _mean(
            1000.0 * tree.self_time(s) for s in tree.named(f"agents.{method}")
        )
    assembles = tree.named("agents.assemble_prompt")
    m["agents.assemble_prompt_ms"] = _mean(1000.0 * tree.self_time(s) for s in assembles)
    offered = sum(s[6].get("offered", 0) for s in assembles)
    m["agents.docs_kept_ratio"] = (
        sum(s[6].get("kept", 0) for s in assembles) / offered if offered else 0.0
    )
    m["agents.plan_retries"] = sum(s[6]["attempts"] - 1 for s in tree.named("agents.plan")) / n
    renders = tree.named("memory.render")
    m["memory.render_calls"] = len(renders) / n
    m["memory.render_us"] = _mean(1e6 * tree.self_time(s) for s in renders)

    m["pipeline.rounds_per_question"] = _mean(r.rounds for r in records)
    for stop in STOPS:
        m[f"pipeline.stop.{stop}"] = sum(1 for r in records if r.stop == stop) / n
    loops = tree.named("pipeline.run_resp") + tree.named("pipeline.run_standard_rag")
    m["pipeline.loop_self_ms"] = _mean(1000.0 * tree.self_time(s) for s in loops)
    for p in ("resp", "standard"):
        for k in SWEEP_K:
            m[f"pipeline.generator_prompt_tokens.{p}.k{k}"] = _mean(
                r.generator_tokens for r in records if r.pipeline == p and r.k == k
            )

    questions = tree.named("question")
    question_time = sum(s[4] - s[3] for s in questions)
    m["evaluation.worker_busy_share"] = question_time / (run.wl.workers * phase["wall"])
    m["evaluation.score_us"] = 1e6 * sum(s[4] - s[3] for s in tree.named("evaluation.score")) / n
    m["config.load_s"] = _median(s[4] - s[3] for s in stree.named("config.load"))
    m["config.runtime_init_s"] = _median(stree.self_time(s) for s in stree.named("config.runtime_init"))
    m["config.fresh_bindings_us"] = _mean(
        1e6 * (s[4] - s[3]) for s in tree.named("config.fresh_bindings")
    )
    m["cli.index_s"] = _median(s[4] - s[3] for s in itree.named("cli.index"))
    m["cli.index_self_ms"] = _median(1000.0 * itree.self_time(s) for s in itree.named("cli.index"))
    plain_mean = _mean(r.seconds for r in plain["records"])
    m["trace.overhead_share"] = _mean(r.seconds for r in records) / plain_mean - 1.0
    # The catch-alls: a layer whose wrapper is missing lands in the self
    # time of the question span or of the pipeline loop around it.
    unaccounted = sum(tree.self_time(s) for s in questions + loops)
    m["trace.unaccounted_share"] = unaccounted / question_time
    bases = {
        "questions": n,
        "question_ms_total": 1000.0 * question_time,
        "unaccounted_ms": 1000.0 * unaccounted,
        "spans": len(q_tracer.spans),
    }
    return m, bases


UNACCOUNTED_LIMIT = 0.10


def required_spans(wl: Workload) -> tuple[set[str], set[str], set[str]]:
    """Span names the index, set-up and question phases of ``wl`` must
    record: the layers the workload goes through."""
    dense = wl.retriever == "dense"
    index = {"cli.index", "retrieval.read_corpus", "retrieval.tokenize", "retrieval.build",
             "retrieval.save"}
    setup = {"config.load", "config.runtime_init", "retrieval.open"}
    questions = {"question", "config.fresh_bindings", "llm.router", "ext.llm",
                 "agents.assemble_prompt", "evaluation.score"}
    if dense:
        setup |= {"retrieval.load_vectors", "retrieval.dense_init"}
        questions |= {"retrieval.dense_retrieve", "ext.embed"}
    else:
        questions |= {"retrieval.bm25_retrieve", "retrieval.tokenize"}
    if "resp" in wl.pipelines:
        questions |= {"pipeline.run_resp", "memory.render"} | {
            f"agents.{m}" for m in ("summarize_global", "answer_local", "judge", "plan", "generate")
        }
    if "standard" in wl.pipelines:
        questions |= {"pipeline.run_standard_rag", "agents.generate_standard"}
    return index, setup, questions


def missing_spans(wl: Workload, tracers: tuple[Tracer, Tracer, Tracer]) -> list[str]:
    missing = []
    for required, tracer in zip(required_spans(wl), tracers):
        seen = {span[2] for span in tracer.spans}
        missing += sorted(required - seen)
    return missing


def run_workload(
    wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path, log=print
) -> dict:
    """Run one workload; returns the result object the command prints."""
    run = Run(wl, seed, seconds, workdir)
    run.prepare()
    log(f"workload {wl.name} seed {seed} seconds {seconds} trace {int(trace)}")
    log(f"params {wl.gen.to_dict()}")
    log(
        f"params pipelines={wl.pipelines} k={wl.k_values} workers={wl.workers} "
        f"llm_latency_s={wl.latency_s} llm_per_token_s={wl.per_token_s} "
        f"retriever={wl.retriever} max_input_tokens={wl.max_input_tokens}"
    )
    tracers = (Tracer(), Tracer(), Tracer()) if trace else (None, None, None)
    with instrument(tracers[0]) if trace else contextlib.nullcontext():
        index = run.index_phase(tracers[0])
    with instrument(tracers[1]) if trace else contextlib.nullcontext():
        setup_times = run.setup_phase(tracers[1])
    phase = run.question_phase()
    if not trace:
        setup_times += run.setup_phase()
    traced = None
    if trace:
        with instrument(tracers[2]):
            traced = run.question_phase(tracers[2])
    rss_mb = 0.0 if trace else run.rss_phase()
    run.check_answers(phase)
    if traced is not None:
        run.check_answers(traced)
    run.check_parallel_determinism(phase)
    run.check_retrieval()
    if not trace:
        setup_times += run.setup_phase()

    n = len(phase["records"])
    reports = phase["reports"] + (traced["reports"] if traced else [])
    failed = sum(errors for _, _, _, _, errors in reports)
    attempted = sum(nq for _, _, nq, _, _ in reports)
    if trace:
        metrics, bases = per_layer(run, *tracers, traced, phase)
        units = dict(per_layer_names())
        log(
            f"trace.unaccounted_share {metrics['trace.unaccounted_share']:.4f} ratio "
            f"(base: {bases['unaccounted_ms']:.1f} ms unaccounted of {bases['question_ms_total']:.1f} ms "
            f"over {bases['questions']} questions, {bases['spans']} spans)"
        )
        if metrics["trace.unaccounted_share"] > UNACCOUNTED_LIMIT:
            run.problems.append(
                f"layer spans account for less than {1 - UNACCOUNTED_LIMIT:.0%} of question time"
            )
        for name in missing_spans(wl, tracers):
            run.problems.append(f"no {name!r} span recorded: a layer is missing from the breakdown")
        spans_path = workdir.parent / f"spans-{wl.name}-s{seed}.jsonl"
        tracers[2].write(spans_path)
        log(f"spans written to {spans_path}")
    else:
        metrics = end_to_end(index, _median(setup_times), phase, rss_mb)
        units = dict(END_TO_END)
        log(
            f"question_p95_ms samples {n}, {beyond_p95(n)} beyond p95; "
            f"setup reps {len(setup_times)}"
        )
        log(f"index_s {index['index_s']} s (one build; not a bounded metric)")
        log(f"failed_share {failed / attempted if attempted else 0.0} ratio (base: {failed} of {attempted})")
    for name, value in metrics.items():
        log(f"{name} {value} {units[name]}")
    for problem in run.problems[:20]:
        log(f"CHECK FAILED: {problem}")
    return {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
