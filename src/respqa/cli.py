"""Command-line entry point: index, ask, eval, sweep.

Exit codes: 0 success, 2 configuration errors, 3 IO/data errors, 4 runtime
failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .config import AppRuntime, CliOverrides, load_app_config
from .errors import ConfigurationError, CorpusError, DatasetError, RespqaError
from .evaluation import evaluate, load_dataset
from .files import replaced_on_success
from .jsonl import require_utf8
from .pipeline import PIPELINE_RESP, PIPELINE_STANDARD, sweep_k
from .retrieval import BM25Index, read_corpus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUNTIME = 4


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--index-dir", help="index directory (overrides config)")
    parser.add_argument("--llm-endpoint", dest="endpoint", help="chat-completion endpoint URL")
    parser.add_argument("--model", help="model name for the completion endpoint")
    parser.add_argument("--script", help="scripted-backend rules file (JSONL); binds all roles")
    parser.add_argument("--templates-dir", help="directory of prompt template overrides")
    parser.add_argument(
        "--max-iters", dest="max_iterations", type=int, help="iteration cap override"
    )
    parser.add_argument("--log-prompts", action="store_true", help="record prompts in traces")
    parser.add_argument("--parallelism", type=int, help="concurrent runs for batch commands")


def _overrides(args: argparse.Namespace) -> CliOverrides:
    # sweep's --k is a list, not the one top_k: sweep_k sets top_k per cell.
    fields = dataclasses.fields(CliOverrides)
    return CliOverrides(**{f.name: getattr(args, f.name) for f in fields if hasattr(args, f.name)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respqa",
        description="Iterative retrieve-summarize-plan question answering over a local corpus.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    p_index = commands.add_parser("index", help="build a BM25 index from a JSONL corpus")
    p_index.add_argument("corpus", help="corpus file (JSONL: id, title, contents)")
    p_index.add_argument("--out", required=True, help="output index directory")
    p_index.set_defaults(func=cmd_index)

    p_ask = commands.add_parser("ask", help="answer a single question")
    p_ask.add_argument("question")
    p_ask.add_argument(
        "--pipeline", choices=[PIPELINE_RESP, PIPELINE_STANDARD], default=PIPELINE_RESP
    )
    p_ask.add_argument("--k", dest="top_k", type=int, help="documents retrieved per iteration")
    p_ask.add_argument("--trace", help="write the full run trace JSON here")
    _add_runtime_flags(p_ask)
    p_ask.set_defaults(func=cmd_ask)

    p_eval = commands.add_parser("eval", help="score a pipeline over a QA dataset")
    p_eval.add_argument("dataset", help="dataset file (JSONL: id, question, golden_answers)")
    p_eval.add_argument("--limit", type=int, default=1000, help="examples to use (default 1000)")
    p_eval.add_argument(
        "--pipeline", choices=[PIPELINE_RESP, PIPELINE_STANDARD], default=PIPELINE_RESP
    )
    p_eval.add_argument("--k", dest="top_k", type=int, help="documents retrieved per iteration")
    p_eval.add_argument("--out-dir", default=".", help="where report files go")
    _add_runtime_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = commands.add_parser("sweep", help="metric curves over documents-per-iteration")
    p_sweep.add_argument("dataset")
    p_sweep.add_argument("--k", default="3,5,10,15", help="comma-separated k values")
    p_sweep.add_argument(
        "--pipelines",
        default=f"{PIPELINE_RESP},{PIPELINE_STANDARD}",
        help="comma-separated pipeline names",
    )
    p_sweep.add_argument("--limit", type=int, default=1000)
    p_sweep.add_argument("--out", default="sweep.csv", help="plot-ready CSV output path")
    _add_runtime_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _check_limit(limit: int) -> None:
    if limit < 0:
        raise ConfigurationError(f"--limit must be >= 0, got {limit}")


def cmd_index(args: argparse.Namespace) -> int:
    index = BM25Index.build(read_corpus(args.corpus))
    index.save(args.out)
    stats = index.stats
    print(
        f"indexed {stats.num_documents} documents, {stats.num_terms} terms, "
        f"avg length {stats.avg_doc_length:.2f} tokens -> {args.out}"
    )
    return EXIT_OK


def cmd_ask(args: argparse.Namespace) -> int:
    if not args.question.strip():
        raise ConfigurationError("question must be non-empty")
    require_utf8(args.question, "the question", ConfigurationError)
    config = load_app_config(args.config, _overrides(args))
    run = AppRuntime(config).runner(pipeline=args.pipeline)
    if not args.trace:
        print(run(args.question).final_answer)
        return EXIT_OK
    with replaced_on_success(args.trace) as handle:  # first: a bad path costs no LLM call
        trace = run(args.question)
        print(trace.final_answer)
        handle.write(trace.to_json())
    print(f"trace written to {args.trace}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    _check_limit(args.limit)
    config = load_app_config(args.config, _overrides(args))
    runtime = AppRuntime(config)
    examples = load_dataset(args.dataset, limit=args.limit)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "eval_report.json"
    rows_path = out_dir / "eval_examples.jsonl"
    # Both files are created before the batch, so a bad path costs no LLM
    # call; the inner one, the rows, replaces its file first.
    with replaced_on_success(summary_path) as summary, replaced_on_success(rows_path) as rows:
        report = evaluate(
            runtime.runner(pipeline=args.pipeline), examples, parallelism=config.parallelism
        )
        for row in report.rows:
            rows.write(json.dumps(row.to_dict(), ensure_ascii=False) + "\n")
        summary.write(json.dumps(report.summary_dict(), indent=2, ensure_ascii=False))
    print(
        f"n={report.n} mean_f1={report.mean_f1:.4f} (x100={report.mean_f1 * 100:.1f}) "
        f"mean_em={report.mean_em:.4f} mean_rounds={report.mean_rounds:.2f} "
        f"errors={report.errors}"
    )
    print(f"report written to {summary_path} and {rows_path}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        k_values = [int(part) for part in args.k.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"invalid --k list {args.k!r}: {exc}") from exc
    if not k_values:
        raise ConfigurationError("--k must name at least one value")
    if min(k_values) < 1:
        raise ConfigurationError(f"--k values must be >= 1, got {args.k!r}")
    _check_limit(args.limit)
    pipelines = [part.strip() for part in args.pipelines.split(",") if part.strip()]
    if not pipelines:
        raise ConfigurationError("--pipelines must name at least one pipeline")
    for name in pipelines:
        if name not in (PIPELINE_RESP, PIPELINE_STANDARD):
            raise ConfigurationError(f"unknown pipeline in --pipelines: {name!r}")
    for flag, values in (("--k", k_values), ("--pipelines", pipelines)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigurationError(f"{flag} repeats {value!r}")

    config = load_app_config(args.config, _overrides(args))
    runtime = AppRuntime(config)
    examples = load_dataset(args.dataset, limit=args.limit)

    out_path = Path(args.out)
    # The CSV file is created before the first cell, so a missing directory
    # costs no LLM call.
    with replaced_on_success(out_path) as handle:
        all_rows = []
        for pipeline in pipelines:
            all_rows.extend(
                sweep_k(
                    examples,
                    k_values,
                    pipeline,
                    make_runner=lambda k, p=pipeline: runtime.runner(pipeline=p, top_k=k),
                    parallelism=config.parallelism,
                )
            )
        writer = csv.writer(handle)
        writer.writerow(["pipeline", "k", "mean_f1", "mean_prompt_tokens", "n", "errors"])
        for row in all_rows:
            writer.writerow(
                [row.pipeline, row.k, f"{row.mean_f1:.6f}", f"{row.mean_prompt_tokens:.2f}", row.n, row.errors]
            )
    for row in all_rows:
        print(
            f"{row.pipeline:8s} k={row.k:<3d} mean_f1={row.mean_f1:.4f} "
            f"mean_prompt_tokens={row.mean_prompt_tokens:.1f}"
        )
    print(f"csv written to {out_path}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, DatasetError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RespqaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
