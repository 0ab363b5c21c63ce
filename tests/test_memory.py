import random
import time
from dataclasses import asdict

import pytest

from respqa.memory import NO_ANSWER_MARKER, MemoryState, normalize_question


class TestNormalizeQuestion:
    def test_case_and_trailing_punctuation(self):
        assert normalize_question("Who is X?") == "who is x"

    def test_whitespace_collapse(self):
        assert normalize_question("  Who \n is\tX ?? ") == "who is x"

    @pytest.mark.parametrize("text", ["Who is X? .", "Who is X ? !", "Who is X ?", "Who is X . ? "])
    def test_punctuation_after_a_space_is_stripped(self, text):
        assert normalize_question(text) == "who is x"

    def test_equal_after_normalization(self):
        assert normalize_question("Who is X?") == normalize_question("who is x")

    def test_internal_punctuation_kept(self):
        assert normalize_question("What is Beinart's role?") == "what is beinart's role"

    def test_long_punctuation_tail_is_linear(self):
        start = time.perf_counter()
        assert normalize_question("Who is X" + "?" * 400_000) == "who is x"
        assert time.perf_counter() - start < 1.0


class TestPushGlobal:
    def test_first_append(self):
        memory = MemoryState()
        memory.push_global(0, "summary zero")
        assert len(memory.global_evidence) == 1
        assert memory.global_evidence[0].round == 0

    def test_append_only(self):
        memory = MemoryState()
        memory.push_global(0, "first")
        memory.push_global(1, "second")
        before = memory.global_evidence
        memory.push_global(2, "third")
        assert len(memory.global_evidence) == 3
        assert memory.global_evidence[:2] == before

    def test_whitespace_only_rejected(self):
        memory = MemoryState()
        with pytest.raises(ValueError, match="non-empty"):
            memory.push_global(0, "   \n ")

    def test_rounds_must_be_contiguous(self):
        memory = MemoryState()
        with pytest.raises(ValueError, match="contiguous"):
            memory.push_global(1, "skipped round zero")
        memory.push_global(0, "ok")
        with pytest.raises(ValueError, match="contiguous"):
            memory.push_global(0, "repeat")


class TestPushLocal:
    def make(self) -> MemoryState:
        memory = MemoryState()
        memory.push_global(0, "round zero evidence")
        memory.push_global(1, "round one evidence")
        return memory

    def test_unanswered_entry(self):
        memory = self.make()
        memory.push_local(1, "Who is Rachelle Amy Beinart?", NO_ANSWER_MARKER, False)
        entry = memory.local_pathway[0]
        assert entry.answered is False
        assert entry.answer == NO_ANSWER_MARKER

    def test_answered_entry_stored_verbatim(self):
        memory = self.make()
        memory.push_local(1, "Which brother?", "Charlie Murphy", True)
        assert memory.local_pathway[0].answer == "Charlie Murphy"

    def test_round_zero_rejected(self):
        memory = MemoryState()
        memory.push_global(0, "evidence")
        with pytest.raises(ValueError, match="round 0"):
            memory.push_local(0, "any question", "x", True)

    def test_unanswered_requires_marker(self):
        memory = self.make()
        with pytest.raises(ValueError, match="marker"):
            memory.push_local(1, "q", "something else", False)

    def test_rounds_contiguous(self):
        memory = self.make()
        with pytest.raises(ValueError, match="contiguous"):
            memory.push_local(2, "q", "a", True)

    def test_empty_subquestion_rejected(self):
        memory = self.make()
        with pytest.raises(ValueError, match="sub_question"):
            memory.push_local(1, "  ", "a", True)


class TestRenderCombined:
    def test_empty_memory_exact(self):
        assert MemoryState().render_combined() == (
            "Global evidence:\n(none)\nRetrieval history:\n(none)"
        )

    def test_single_global_before_history(self):
        memory = MemoryState()
        memory.push_global(0, "E1")
        rendered = memory.render_combined()
        assert rendered.count("E1") == 1
        assert rendered.index("E1") < rendered.index("Retrieval history:")

    def test_local_entries_in_round_order(self):
        memory = MemoryState()
        memory.push_global(0, "e0")
        memory.push_global(1, "e1")
        memory.push_local(1, "first question?", "alpha", True)
        memory.push_global(2, "e2")
        memory.push_local(2, "second question?", NO_ANSWER_MARKER, False)
        rendered = memory.render_combined()
        assert rendered.index("Q: first question? A: alpha") < rendered.index(
            "Q: second question? A: no answer found"
        )

    def test_idempotent(self):
        memory = MemoryState()
        memory.push_global(0, "evidence")
        assert memory.render_combined() == memory.render_combined()

    def test_distinct_contents_render_distinctly(self):
        rng = random.Random(7)
        seen = {}
        for _ in range(200):
            memory = MemoryState()
            rounds = rng.randint(1, 3)
            for r in range(rounds):
                memory.push_global(r, f"g{rng.randint(0, 5)}")
                if r >= 1:
                    answered = rng.random() < 0.5
                    memory.push_local(
                        r,
                        f"q{rng.randint(0, 5)}?",
                        f"a{rng.randint(0, 5)}" if answered else NO_ANSWER_MARKER,
                        answered,
                    )
            key = (memory.global_evidence, memory.local_pathway)
            rendered = memory.render_combined()
            if key in seen:
                assert seen[key] == rendered
            else:
                for other_key, other_render in seen.items():
                    if other_render == rendered:
                        assert other_key == key
                seen[key] = rendered


class TestSeenSubquestions:
    def test_normalized_dedup(self):
        memory = MemoryState()
        memory.push_global(0, "e0")
        memory.push_global(1, "e1")
        memory.push_local(1, "Who is X?", "a", True)
        memory.push_global(2, "e2")
        memory.push_local(2, "who is x", NO_ANSWER_MARKER, False)
        assert memory.seen_subquestions("Q?") == {"q", "who is x"}

    def test_empty(self):
        assert MemoryState().seen_subquestions("Q?") == {"q"}

    def test_two_distinct(self):
        memory = MemoryState()
        memory.push_global(0, "e0")
        memory.push_global(1, "e1")
        memory.push_local(1, "A?", "x", True)
        memory.push_global(2, "e2")
        memory.push_local(2, "B?", "y", True)
        assert memory.seen_subquestions("Q?") == {"q", "a", "b"}

    def test_overarching_included_when_supplied(self):
        memory = MemoryState()
        assert memory.seen_subquestions("The Big Question?") == {"the big question"}


def test_length_law_after_r_rounds():
    for rounds in range(1, 5):
        memory = MemoryState()
        for r in range(rounds):
            memory.push_global(r, f"evidence {r}")
            if r >= 1:
                memory.push_local(r, f"sub-question {r}?", "answer", True)
        assert len(memory.global_evidence) == rounds
        assert len(memory.local_pathway) == rounds - 1


def test_to_dict_shape():
    memory = MemoryState()
    memory.push_global(0, "e0")
    memory.push_global(1, "e1")
    memory.push_local(1, "q?", NO_ANSWER_MARKER, False)
    data = asdict(memory)
    assert data["global_evidence"] == (
        {"round": 0, "text": "e0"},
        {"round": 1, "text": "e1"},
    )
    assert data["local_pathway"][0]["answered"] is False


def test_entries_enter_only_through_the_pushes():
    with pytest.raises(TypeError):
        MemoryState(global_evidence=())
    first, second = MemoryState(), MemoryState()
    assert first != second
    assert len({first, second}) == 2
