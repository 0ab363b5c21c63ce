"""Peak RSS of the product alone, for the ``peak_rss_mb`` metric.

    python3 -m perfbench.rss <spec.json>

A fresh process loads the config, builds the runtime (index open; vectors
and the dense retriever on dense workloads) and answers the first questions of
the dataset through ``evaluate``, with the simulated LLM at zero latency. It
prints its peak resident set size in MB as the last line. The generator,
the reference rankers and the parent's earlier phases never live in this
process, so the figure is the interpreter, the package and its data.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from respqa.config import load_app_config
from respqa.evaluation import evaluate, load_dataset
from respqa.retrieval import EmbeddingRetriever, load_vectors

from .gen import HashEmbedder
from .simllm import SimulatedLLM
from .workloads import BenchRuntime


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    runtime = BenchRuntime(load_app_config(spec["config"]), SimulatedLLM())
    if spec["vectors"]:
        embed = HashEmbedder(spec["embed_dim"], frozenset(spec["embed_stop"]))
        runtime.retriever = EmbeddingRetriever(
            runtime.retriever.documents, load_vectors(spec["vectors"]), embed
        )
    examples = load_dataset(spec["dataset"])[: spec["questions"]]
    for pipeline in spec["pipelines"]:
        report = evaluate(
            runtime.runner(pipeline, top_k=spec["k"]), examples, parallelism=spec["workers"]
        )
        if report.errors:
            print(f"perfbench.rss: {report.errors} errors in {pipeline}", file=sys.stderr)
            return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
