import random
import string
from dataclasses import replace

import pytest

from respqa.agents import (
    NO_INFO_SENTINEL,
    SLOT_MEMORY,
    SLOT_OVERARCHING,
    PipelineAgents,
    PipelineConfig,
    PromptTemplateSet,
    assemble_prompt,
    parse_global_summary,
    parse_judgement,
    parse_local_answer,
    parse_plan_surface,
    referenced_slots,
    render_docs,
    render_template,
)
from respqa.errors import ConfigurationError, PromptError, PromptTooLargeError
from respqa.llm import ScriptedRule, whitespace_token_estimate
from respqa.memory import NO_ANSWER_MARKER, MemoryState, normalize_question
from respqa.retrieval import RetrievedDocument

from helpers import (
    GENERATE_MARKER,
    JUDGE_MARKER,
    LOCAL_MARKER,
    PLAN_MARKER,
    PLAN_RETRY_MARKER,
    SUMMARIZER_MARKER,
    capture_router,
    scripted_agents,
)

TEMPLATES = PromptTemplateSet.load_default()

ANCHORS = {
    "judge": "are you able to completely and accurately respond",
    "plan": "generate one thought in the form of question",
    "global_evidence": "write a good-quality passage that can support",
    "local_pathway": "please reply with 'Yes', followed by an accurate response",
    "generate": "Answer the question based on the given reference",
}


def hit(i: int, text: str, rank: int) -> RetrievedDocument:
    return RetrievedDocument(doc_id=f"d{i}", title=f"T{i}", text=text, score=10.0 - rank, rank=rank)


def memory_with(global_texts: list[str]) -> MemoryState:
    memory = MemoryState()
    for r, text in enumerate(global_texts):
        memory.push_global(r, text)
    return memory


class TestTemplateFidelity:
    @pytest.mark.parametrize("name,anchor", sorted(ANCHORS.items()))
    def test_template_contains_anchor(self, name, anchor):
        assert anchor in getattr(TEMPLATES, name)

    def test_rendered_judge_prompt_contains_anchor(self):
        prompt = render_template(
            TEMPLATES.judge, {SLOT_OVERARCHING: "Q?", SLOT_MEMORY: "(memory)"}
        )
        assert ANCHORS["judge"] in prompt
        assert "Q?" in prompt and "(memory)" in prompt

    def test_all_templates_render_with_full_bindings(self):
        bindings = {
            "Overarching question": "Q?",
            "Sub-question": "SQ?",
            "Combined memory queues": "MEM",
            "docs": "DOCS",
        }
        for name, anchor in ANCHORS.items():
            prompt = render_template(getattr(TEMPLATES, name), bindings)
            assert anchor in prompt
            assert "{" not in prompt and "}" not in prompt

    def test_load_dir_overrides_single_template(self, tmp_path):
        (tmp_path / "judge.txt").write_text("custom judge {Overarching question}\n")
        templates = PromptTemplateSet.load_dir(tmp_path)
        assert templates.judge == "custom judge {Overarching question}"
        assert templates.plan == TEMPLATES.plan

    def test_shipped_templates_pass_the_slot_check(self, tmp_path):
        for name in ANCHORS:
            (tmp_path / f"{name}.txt").write_text(getattr(TEMPLATES, name) + "\n")
        assert PromptTemplateSet.load_dir(tmp_path) == TEMPLATES

    @pytest.mark.parametrize(
        "name, slot",
        [
            ("judge", "Overarching questio"),
            ("plan", "Forbidden questions"),
            ("global_evidence", "Combined memory queues"),
            ("local_pathway", "Overarching question"),
            ("generate", "docs"),
        ],
    )
    def test_override_with_a_slot_its_agent_does_not_bind_is_refused(self, tmp_path, name, slot):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"{ANCHORS[name]} {{{slot}}}\n")
        with pytest.raises(ConfigurationError) as excinfo:
            PromptTemplateSet.load_dir(tmp_path)
        assert str(path) in str(excinfo.value)
        assert f"{{{slot}}}" in str(excinfo.value)


class TestRenderTemplate:
    def test_unbound_slot_is_error(self):
        with pytest.raises(PromptError, match="Overarching question"):
            render_template(TEMPLATES.judge, {SLOT_MEMORY: "m"})

    def test_extra_bindings_ignored(self):
        assert render_template("just {a}", {"a": "x", "b": "y"}) == "just x"

    def test_braces_in_values_not_rescanned(self):
        assert render_template("{a}", {"a": "{b}", "b": "nope"}) == "{b}"

    def test_referenced_slots(self):
        assert referenced_slots(TEMPLATES.local_pathway) == {
            "Sub-question",
            "Combined memory queues",
        }


class TestAssemblePrompt:
    TEMPLATE = "Context: {docs}\nMemory: {Combined memory queues}\nQ: {Overarching question}"

    def bindings(self, memory_text="memory-content"):
        return {SLOT_MEMORY: memory_text, SLOT_OVERARCHING: "the question"}

    def docs(self, n, words_each=20):
        return [" ".join(f"doc{i}w{j}" for j in range(words_each)) for i in range(n)]

    def test_all_docs_fit(self):
        prompt = assemble_prompt(
            self.TEMPLATE, self.bindings(), docs=self.docs(3), max_input_tokens=1000
        )
        for i in range(3):
            assert f"doc{i}w0" in prompt

    def test_lowest_ranked_docs_dropped_first(self):
        docs = self.docs(10)
        # Each doc is 20 words = 26 estimated tokens; cap around 5 docs.
        prompt = assemble_prompt(
            self.TEMPLATE, self.bindings(), docs=docs, max_input_tokens=150
        )
        kept = [i for i in range(10) if f"doc{i}w0" in prompt]
        assert kept == list(range(len(kept)))  # always a prefix of the ranking
        assert 0 < len(kept) < 10
        assert whitespace_token_estimate(prompt) <= 150

    def test_memory_binding_never_truncated(self):
        memory_text = " ".join(f"mem{i}" for i in range(40))
        prompt = assemble_prompt(
            self.TEMPLATE,
            self.bindings(memory_text),
            docs=self.docs(10),
            max_input_tokens=150,
        )
        assert memory_text in prompt

    def test_error_when_rank_one_does_not_fit(self):
        docs = [" ".join(f"w{j}" for j in range(500))]
        with pytest.raises(PromptTooLargeError) as excinfo:
            assemble_prompt(self.TEMPLATE, self.bindings(), docs=docs, max_input_tokens=100)
        assert excinfo.value.cap == 100
        assert excinfo.value.estimate > 100

    def test_error_when_memory_only_prompt_exceeds_cap(self):
        big = " ".join(f"m{i}" for i in range(200))
        with pytest.raises(PromptTooLargeError):
            assemble_prompt(
                "Memory: {Combined memory queues}", {SLOT_MEMORY: big}, max_input_tokens=50
            )

    def test_empty_docs_list_renders_empty_slot(self):
        prompt = assemble_prompt(
            self.TEMPLATE, self.bindings(), docs=[], max_input_tokens=1000
        )
        assert "Context: \nMemory:" in prompt

    def test_output_length_monotone_in_docs_that_fit(self):
        lengths = []
        for cap in [60, 90, 120, 150, 400]:
            prompt = assemble_prompt(
                self.TEMPLATE, self.bindings(), docs=self.docs(10), max_input_tokens=cap
            )
            lengths.append(len(prompt))
        assert lengths == sorted(lengths)

    def test_no_cap_keeps_everything(self):
        prompt = assemble_prompt(self.TEMPLATE, self.bindings(), docs=self.docs(4))
        assert all(f"doc{i}w19" in prompt for i in range(4))


class TestParsers:
    def test_summary_marker_stripped(self):
        assert parse_global_summary("X. [DONE]") == "X."

    def test_summary_marker_only_yields_sentinel(self):
        assert parse_global_summary("[DONE]") == NO_INFO_SENTINEL
        assert parse_global_summary("   ") == NO_INFO_SENTINEL

    def test_summary_plain_text_trimmed(self):
        assert parse_global_summary("  a passage  ") == "a passage"

    @pytest.mark.parametrize(
        "raw,sufficient,anomaly",
        [
            ("Yes", True, False),
            ("yes, definitely", True, False),
            (" Yes.", True, False),
            ("No", False, False),
            ("no.", False, False),
            ("No, I need more information", False, False),
            ("I think yes", False, True),
            ("Maybe", False, True),
            ("Yesterday it rained", False, True),
            ("Nothing here", False, True),
            ("", False, True),
        ],
    )
    def test_judgement(self, raw, sufficient, anomaly):
        judgement = parse_judgement(raw)
        assert judgement.sufficient is sufficient
        assert judgement.anomaly is anomaly
        assert judgement.raw_text == raw

    @pytest.mark.parametrize(
        "raw,answered,answer,anomaly",
        [
            ("Yes, Charlie Murphy", True, "Charlie Murphy", False),
            ("Yes: 42.", True, "42.", False),
            ("yes Charlie", True, "Charlie", False),
            ("Yes", True, "", False),
            ("No", False, NO_ANSWER_MARKER, False),
            ("Maybe", False, NO_ANSWER_MARKER, True),
            ("Unclear", False, NO_ANSWER_MARKER, True),
        ],
    )
    def test_local_answer(self, raw, answered, answer, anomaly):
        local = parse_local_answer(raw)
        assert local.answered is answered
        assert local.answer == answer
        assert local.anomaly is anomaly

    def test_parse_totality_fuzz(self):
        rng = random.Random(99)
        alphabet = string.printable + "Ééのはい"
        for _ in range(300):
            raw = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
            judgement = parse_judgement(raw)
            assert judgement.sufficient in (True, False)
            local = parse_local_answer(raw)
            if not local.answered:
                assert local.answer == NO_ANSWER_MARKER
            assert isinstance(parse_global_summary(raw), str)
            assert parse_global_summary(raw)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Thought: Who is X?", "Who is X?"),
            ("Question: What year?", "What year?"),
            ("question:   spaced", "spaced"),
            ("Thought: Question: nested", "nested"),
            ("Who is X?", "Who is X?"),
        ],
    )
    def test_plan_surface(self, raw, expected):
        assert parse_plan_surface(raw) == expected


class TestRenderDocs:
    def test_title_then_text(self):
        docs = [hit(1, "body one", 1), hit(2, "body two", 2)]
        assert render_docs(docs) == ["T1\nbody one", "T2\nbody two"]


class TestSummarizeGlobal:
    def test_scripted_case_study(self):
        agents, _ = scripted_agents(
            [ScriptedRule(SUMMARIZER_MARKER, "Victor Varnado directed Twisted Fortune, which starred Charlie Murphy. [DONE]")]
        )
        docs = [hit(1, "Twisted Fortune stars Charlie Murphy.", 1)]
        summary = agents.summarize_global(docs, "Which brother of Eddie Murphy starred?")
        assert "Charlie Murphy" in summary
        assert "[DONE]" not in summary

    def test_marker_only_becomes_sentinel(self):
        agents, _ = scripted_agents([ScriptedRule(SUMMARIZER_MARKER, "[DONE]")])
        summary = agents.summarize_global([hit(1, "text", 1)], "q?")
        assert summary == NO_INFO_SENTINEL

    def test_empty_docs_rejected(self):
        agents, _ = scripted_agents([])
        with pytest.raises(ValueError, match="document"):
            agents.summarize_global([], "q?")

    def test_docs_joined_with_blank_lines(self):
        agents, backend = scripted_agents([ScriptedRule(SUMMARIZER_MARKER, "ok")])
        agents.summarize_global([hit(1, "one", 1), hit(2, "two", 2)], "q?")
        prompt = backend.history[0].prompt
        assert "T1\none\n\nT2\ntwo" in prompt


class TestAnswerLocal:
    def test_yes_parsed(self):
        agents, _ = scripted_agents([ScriptedRule(LOCAL_MARKER, "Yes, Charlie Murphy")])
        memory = memory_with(["evidence about the film"])
        local = agents.answer_local("Which brother?", memory)
        assert local.answered is True
        assert local.answer == "Charlie Murphy"

    def test_memory_render_embedded_verbatim(self):
        agents, backend = scripted_agents([ScriptedRule(LOCAL_MARKER, "No")])
        memory = memory_with(["evidence one", "evidence two"])
        agents.answer_local("Sub q?", memory)
        assert memory.render_combined() in backend.history[0].prompt


class TestJudge:
    def test_requires_global_evidence(self):
        agents, _ = scripted_agents([ScriptedRule(JUDGE_MARKER, "Yes")])
        with pytest.raises(ValueError, match="global evidence"):
            agents.judge("q?", MemoryState())

    def test_scripted_yes(self):
        agents, _ = scripted_agents([ScriptedRule(JUDGE_MARKER, "Yes")])
        assert agents.judge("q?", memory_with(["ev"])).sufficient is True

    def test_strict_prefix_anomaly(self):
        agents, _ = scripted_agents([ScriptedRule(JUDGE_MARKER, "I think yes")])
        judgement = agents.judge("q?", memory_with(["ev"]))
        assert judgement.sufficient is False
        assert judgement.anomaly is True

    def test_prompt_records(self):
        agents, backend = scripted_agents([ScriptedRule(JUDGE_MARKER, "No")])
        agents = replace(agents, prompt_log=[])
        agents.judge("q?", memory_with(["ev"]))
        assert agents.prompt_log == [("judge", backend.history[0].prompt)]
        assert ANCHORS["judge"] in agents.prompt_log[0][1]


class TestPlan:
    def test_novel_first_attempt(self):
        agents, _ = scripted_agents([ScriptedRule(PLAN_MARKER, "Who is Rachelle Amy Beinart?")])
        result = agents.plan("Big question?", memory_with(["ev"]), forbidden=set())
        assert result.sub_question == "Who is Rachelle Amy Beinart?"
        assert result.attempts == 1
        assert result.forced_termination is False

    def test_retry_on_duplicate(self):
        agents, backend = scripted_agents(
            [
                ScriptedRule(PLAN_RETRY_MARKER, "What film features a group of rebels?"),
                ScriptedRule(PLAN_MARKER, "Who is Rachelle Amy Beinart?"),
            ]
        )
        forbidden = {normalize_question("Who is Rachelle Amy Beinart?")}
        result = agents.plan("Big question?", memory_with(["ev"]), forbidden)
        assert result.attempts == 2
        assert result.forced_termination is False
        assert result.sub_question == "What film features a group of rebels?"
        retry_prompt = backend.history[1].prompt
        assert "Do not repeat any of these questions: who is rachelle amy beinart" in retry_prompt

    def test_both_attempts_duplicate_forces_termination(self):
        agents, _ = scripted_agents([ScriptedRule(PLAN_MARKER, "Who is X?")])
        forbidden = {normalize_question("Who is X?")}
        result = agents.plan("Big question?", memory_with(["ev"]), forbidden)
        assert result.attempts == 2
        assert result.forced_termination is True

    def test_empty_surface_treated_as_duplicate(self):
        agents, _ = scripted_agents([ScriptedRule(PLAN_MARKER, "Thought: ")])
        result = agents.plan("Big question?", memory_with(["ev"]), forbidden=set())
        assert result.forced_termination is True

    def test_never_returns_forbidden_unless_forced(self):
        rng = random.Random(4)
        pool = [f"Question number {i}?" for i in range(6)]
        for _ in range(50):
            first, second = rng.choice(pool), rng.choice(pool)
            agents, _ = scripted_agents(
                [ScriptedRule(PLAN_RETRY_MARKER, second), ScriptedRule(PLAN_MARKER, first)]
            )
            forbidden = {normalize_question(q) for q in rng.sample(pool, rng.randint(0, 4))}
            result = agents.plan("Overall?", memory_with(["ev"]), forbidden)
            if not result.forced_termination:
                assert normalize_question(result.sub_question) not in forbidden

    def test_prefix_stripped(self):
        agents, _ = scripted_agents([ScriptedRule(PLAN_MARKER, "Thought: Who directed it?")])
        result = agents.plan("Big question?", memory_with(["ev"]), forbidden=set())
        assert result.sub_question == "Who directed it?"

    def test_retry_prompt_is_plan_prompt_plus_forbidden_list(self):
        agents, backend = scripted_agents([ScriptedRule(PLAN_MARKER, "Who is {Sub-question}?")])
        forbidden = {normalize_question("Who is {Sub-question}?"), "what is {docs}"}
        agents.plan("Big {question}?", memory_with(["ev {x}"]), forbidden)
        first, retry = (call.prompt for call in backend.history)
        assert retry == first + "\nDo not repeat any of these questions: " + "; ".join(
            sorted(forbidden)
        )

    def test_retry_prompt_also_capped(self):
        agents, _ = scripted_agents(
            [ScriptedRule(PLAN_MARKER, "Who is X?")], max_input_tokens=160
        )
        # Base plan prompt fits; the appended forbidden list would not.
        forbidden = {normalize_question("Who is X?")} | {
            f"padding question number {i} with many extra words" for i in range(20)
        }
        with pytest.raises(PromptTooLargeError):
            agents.plan("Big question?", memory_with(["ev"]), forbidden)


class TestGenerate:
    def test_trim_only(self):
        agents, _ = scripted_agents([ScriptedRule(GENERATE_MARKER, "  Answer: X  ")])
        assert agents.generate("q?", memory_with(["ev"])) == "Answer: X"

    def test_case_study_answer(self):
        agents, _ = scripted_agents([ScriptedRule(GENERATE_MARKER, "Charlie Murphy")])
        memory = memory_with(["Victor Varnado directed Twisted Fortune starring Charlie Murphy."])
        assert agents.generate("Which brother?", memory) == "Charlie Murphy"

    def test_render_matches_sent_prompt(self):
        agents, backend = scripted_agents([ScriptedRule(GENERATE_MARKER, "x")])
        agents = replace(agents, prompt_log=[])
        agents.generate("q?", memory_with(["ev"]))
        agents.generate_standard("q?", [hit(1, "raw doc text", 1)])
        assert agents.prompt_log == [("generate", call.prompt) for call in backend.history]

    def test_standard_prompt_carries_raw_docs(self):
        agents, backend = scripted_agents([ScriptedRule(GENERATE_MARKER, "x")])
        docs = [hit(1, "raw doc text", 1)]
        agents.generate_standard("q?", docs)
        prompt = backend.history[0].prompt
        assert "raw doc text" in prompt
        assert "Global evidence:" not in prompt

    def test_standard_prompt_empty_reference_on_zero_hits(self):
        agents, backend = scripted_agents([ScriptedRule(GENERATE_MARKER, "x")])
        agents.generate_standard("q?", [])
        assert "The following are given reference: \n" in backend.history[0].prompt


class TestRoleTemperatures:
    def test_temperatures_routed_per_role(self):
        router, backend = capture_router()
        agents = PipelineAgents(router, config=PipelineConfig(generator_temperature=0.7))
        memory = memory_with(["ev"])
        agents.judge("q?", memory)
        agents.answer_local("sq?", memory)
        agents.generate("q?", memory)
        temps = {r.role_tag: r.temperature for r in backend.requests}
        assert temps == {"reasoner": 0.0, "summarizer": 0.0, "generator": 0.7}

    @pytest.mark.parametrize(
        "setting, fragment",
        [
            ({"generator_temperature": -1}, "generator_temperature"),
            ({"generator_temperature": float("nan")}, "generator_temperature"),
            ({"generator_temperature": float("inf")}, "generator_temperature"),
            ({"max_input_tokens": 0}, "token caps"),
            ({"max_output_tokens": 0}, "token caps"),
        ],
    )
    def test_bad_setting_rejected_before_any_call(self, setting, fragment):
        router, backend = capture_router()
        with pytest.raises(ValueError, match=fragment):
            PipelineAgents(router, config=PipelineConfig(**setting))
        assert backend.requests == []

    def test_max_output_tokens_passed_through(self):
        router, backend = capture_router()
        agents = PipelineAgents(router, config=PipelineConfig(max_output_tokens=77))
        agents.judge("q?", memory_with(["ev"]))
        assert backend.requests[0].max_output_tokens == 77


def test_generate_on_empty_memory_is_passthrough():
    agents, _ = scripted_agents([ScriptedRule(GENERATE_MARKER, "  raw output  ")])
    assert agents.generate("q?", MemoryState()) == "raw output"


class TestAgentTruncation:
    def test_summarize_prompt_respects_input_cap(self):
        agents, backend = scripted_agents(
            [ScriptedRule(SUMMARIZER_MARKER, "ok")], max_input_tokens=400
        )
        docs = [hit(i, " ".join(f"w{i}_{j}" for j in range(100)), i + 1) for i in range(10)]
        agents.summarize_global(docs, "q?")
        prompt = backend.history[0].prompt
        assert whitespace_token_estimate(prompt) <= 400
        assert "w0_0" in prompt  # rank-1 document survives
        assert "w9_0" not in prompt  # lowest-ranked dropped
