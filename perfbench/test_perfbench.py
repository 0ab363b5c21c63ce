"""The benchmark's own tests: smoke runs at tiny size, determinism, checks."""

from __future__ import annotations

import dataclasses
import re
import threading

import pytest

from perfbench import spans, workloads
from perfbench.gen import GenParams, make_world, write_world
from perfbench.oracles import BruteBM25, same_ranking
from perfbench.simllm import reply
from perfbench.workloads import END_TO_END, WORKLOADS, Run, per_layer_names, run_workload
from respqa.agents import PromptTemplateSet, render_template
from respqa.retrieval import BM25Index, Document

FACT = re.compile(r"[A-Z][a-z]+ [A-Z][a-z]+ [a-z]+-link [A-Z][a-z]+ [A-Z][a-z]+\.")
TINY = GenParams(n_docs=300, n_questions=12, embed_dim=0)


@pytest.fixture(autouse=True)
def _short_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_BUDGET_S", 0.0)


def _tiny(name: str) -> object:
    wl = WORKLOADS[name]
    gen = dataclasses.replace(TINY, embed_dim=wl.gen.embed_dim)
    return dataclasses.replace(wl, gen=gen, latency_s=0.0, per_token_s=0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_checks(name, trace, tmp_path):
    lines: list[str] = []
    result = run_workload(_tiny(name), 3, 0.05, trace, tmp_path / "work", log=lines.append)
    assert result["correct"], [line for line in lines if "CHECK FAILED" in line]
    assert result["failed"] == 0 and result["attempted"] >= 200
    expected = per_layer_names() if trace else END_TO_END
    assert list(result["metrics"]) == [metric for metric, _ in expected]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_layer_missing_from_the_breakdown_fails_the_traced_run(tmp_path, monkeypatch):
    kept = [target for target in spans._TARGETS if target[2] != "agents.judge"]
    monkeypatch.setattr(spans, "_TARGETS", kept)
    lines: list[str] = []
    result = run_workload(_tiny("resp_multihop"), 3, 0.05, True, tmp_path / "work", log=lines.append)
    assert not result["correct"]
    assert any("'agents.judge'" in line for line in lines if "CHECK FAILED" in line)


def test_generator_is_byte_identical_per_seed(tmp_path):
    params = dataclasses.replace(TINY, embed_dim=16)
    first = write_world(make_world(params, 7), tmp_path / "a")
    second = write_world(make_world(params, 7), tmp_path / "b")
    other = write_world(make_world(params, 8), tmp_path / "c")
    for key in ("corpus", "dataset", "vectors"):
        assert first[key].read_bytes() == second[key].read_bytes()
        assert first[key].read_bytes() != other[key].read_bytes()


def test_generator_mix_is_exact():
    world = make_world(dataclasses.replace(TINY, n_questions=40), 1)
    kinds = [(e.hops, e.answerable) for e in world.expected.values()]
    assert [sum(1 for h, _ in kinds if h == hops) for hops in (1, 2, 3)] == [10, 20, 10]
    assert sum(1 for _, answerable in kinds if not answerable) == 8


def _prompts(world) -> list[str]:
    """Judge, plan and generate prompts for every question, over all facts
    of the corpus and over single documents."""
    templates = PromptTemplateSet.load_default()
    all_facts = " ".join(FACT.findall(" ".join(row["contents"] for row in world.corpus)))
    memories = [all_facts] + [row["contents"] for row in world.corpus[:30]]
    prompts = []
    for ex in world.dataset:
        for memory in memories:
            bindings = {"Overarching question": ex["question"], "Combined memory queues": memory}
            for template in (templates.judge, templates.plan, templates.generate):
                prompts.append(render_template(template, bindings))
    return prompts


def test_simulated_llm_is_prompt_pure_under_threads():
    prompts = _prompts(make_world(TINY, 5))
    sequential = [reply(p) for p in prompts]
    results: dict[int, list[str]] = {}

    def worker(slot: int) -> None:
        results[slot] = [reply(p) for p in reversed(prompts)][::-1]

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert all(results[slot] == sequential for slot in range(4))
    assert {"Yes", "No"} <= set(sequential)


def test_simulated_llm_follows_the_chain():
    question = "In the end, what is the bar of the foo of Aaa Bbb?"
    facts = "Aaa Bbb foo-link Ccc Ddd. Ccc Ddd bar-link Eee Fff."
    templates = PromptTemplateSet.load_default()
    generate = render_template(
        templates.generate, {"Overarching question": question, "Combined memory queues": facts}
    )
    assert reply(generate) == "Eee Fff"
    plan = render_template(
        templates.plan,
        {"Overarching question": question, "Combined memory queues": facts.split(". ")[0] + "."},
    )
    assert reply(plan) == "What is the bar of Ccc Ddd?"


def test_bm25_oracle_matches_the_index_and_rejects_a_tie_swap():
    docs = [Document(f"d{i}", "", text) for i, text in enumerate(["x y", "y x", "x z z", "w"])]
    rows = [{"id": d.doc_id, "contents": d.text} for d in docs]
    got = [(h.doc_id, h.score) for h in BM25Index.build(docs).retrieve("x y", 3)]
    want = BruteBM25(rows).top("x y", 3)
    assert same_ranking(got, want)
    assert got[0][1] == got[1][1]  # an exact tie, broken by doc id
    assert not same_ranking([got[1], got[0], got[2]], want)
    assert same_ranking([got[1], got[0], got[2]], want, float_ties=True)


def test_wrong_answer_fails_the_check(tmp_path):
    run = Run(_tiny("resp_multihop"), 2, 0.05, tmp_path / "work")
    run.prepare()
    run.index_phase()
    run.setup_phase()
    phase = run.question_phase()
    run.check_answers(phase)
    assert run.problems == []
    phase["records"][0].answer = "Someone Else"
    run.check_answers(phase)
    assert any("expected" in problem for problem in run.problems)
