"""Differential suite: the repair search against its parse-every-candidate loop.

``SentenceRepairer.repair`` skips a candidate with an unknown word
without parsing it, asks the parser for a zero-null linkage count next,
and fully parses only candidates whose count is positive.  The oracle
below keeps the earlier loop verbatim: it fully parses every candidate
and reads the unknown words, null count and best cost off the result.
Both must return identical ``Repair`` lists on the bench templates, on a
seeded learner stream, on drawn word sequences that mix dictionary words
with unknown ones, and under small candidate budgets, where the rule
that an unknown-word candidate skips the budget check decides which
candidates are tried at all.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.linkgrammar.lexicon import default_dictionary
from repro.linkgrammar.parser import Parser
from repro.linkgrammar.repair import Repair, SentenceRepairer
from repro.linkgrammar.tokenizer import TokenizedSentence, tokenize
from repro.ontology.domains import default_ontology
from repro.simulation import SimulatedLearner


class ParseEveryCandidateRepairer(SentenceRepairer):
    """The parse-every-candidate loop, kept verbatim as the oracle."""

    def repair(self, text: str | TokenizedSentence) -> list[Repair]:
        sentence = tokenize(text) if isinstance(text, str) else text
        baseline = self.parser.parse(sentence)
        base_cost = baseline.best.cost if baseline.best else 0
        base_key = (baseline.null_count, base_cost)
        if baseline.null_count == 0 and not baseline.unknown_words and base_cost == 0:
            return []
        words = list(sentence.words)
        terminator = sentence.terminator
        if not words:
            return []
        trouble = self._trouble_spots(baseline, len(words))
        repairs: list[Repair] = []
        seen: set[str] = set()
        for candidate, edit in self._candidates(words, terminator, trouble):
            if candidate in seen or candidate.lower() == sentence.raw.lower():
                continue
            seen.add(candidate)
            result = self.parser.parse(candidate)
            if result.unknown_words:
                continue
            # A repair must be *fully* grammatical — a partial improvement
            # would still draw a Learning_Angel warning.
            key = (result.null_count, result.best.cost if result.best else 0)
            if result.null_count == 0 and result.linkages and key < base_key:
                repairs.append(
                    Repair(
                        text=candidate,
                        edit=edit,
                        null_count=0,
                        cost=result.best.cost if result.best else 0,
                    )
                )
            if len(seen) >= self.max_candidates:
                break
        repairs.sort(key=Repair.sort_key)
        return repairs[: self.max_results]


UNKNOWN_WORDS = ("blorf", "zqx", "stak", "teh", "quuee")


def _bench_templates() -> list[str]:
    path = Path(__file__).resolve().parents[2] / "bench" / "traffic.py"
    spec = importlib.util.spec_from_file_location("bench_traffic", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return [text for text, _label in module.TEMPLATES]


def _classroom_stream(count: int = 320) -> list[str]:
    ontology = default_ontology()
    learners = [SimulatedLearner(f"l{n}", ontology, seed=n) for n in range(5)]
    return [learners[n % 5].next_utterance().text for n in range(count)]


@pytest.fixture(scope="module")
def dictionary():
    return default_dictionary()


@pytest.fixture(scope="module")
def repairers(dictionary):
    """The repairer and the oracle, each with its own private cache."""
    return SentenceRepairer(dictionary), ParseEveryCandidateRepairer(dictionary)


@pytest.fixture(scope="module")
def faulty_stream(repairers):
    """Stream sentences with something to repair, unknown words included."""
    ours, _ = repairers
    texts = []
    for text in _classroom_stream():
        result = ours.parser.parse(text)
        if result.null_count or result.unknown_words:
            texts.append(text)
    return texts


def _vocabulary(dictionary) -> list[str]:
    words = sorted(w for w in dictionary.words() if w.isalpha() and w.islower())
    # Every tenth word keeps the draw small but spread over the lexicon.
    return words[::10]


class TestSameRepairs:
    def test_bench_templates(self, repairers):
        ours, oracle = repairers
        texts = _bench_templates()
        assert len(texts) == 25
        for text in texts:
            assert ours.repair(text) == oracle.repair(text), text

    def test_seeded_classroom_stream(self, repairers, faulty_stream):
        ours, oracle = repairers
        texts = _classroom_stream()
        assert len(texts) >= 300
        repaired = 0
        for text in texts:
            expected = oracle.repair(text)
            assert ours.repair(text) == expected, text
            repaired += bool(expected)
        assert repaired > 0  # the stream exercises the repair path
        # ... and the unknown-word skip: some faulty sentence has one.
        assert any(ours.parser.parse(t).unknown_words for t in faulty_stream)

    def test_pretokenised_input(self, repairers, faulty_stream):
        ours, oracle = repairers
        for text in faulty_stream[:20]:
            assert ours.repair(tokenize(text)) == oracle.repair(tokenize(text)), text

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_small_candidate_budgets(self, dictionary, faulty_stream, monkeypatch, budget):
        ours = SentenceRepairer(dictionary)
        oracle = ParseEveryCandidateRepairer(dictionary)
        monkeypatch.setattr(ours, "max_candidates", budget)
        monkeypatch.setattr(oracle, "max_candidates", budget)
        texts = faulty_stream[:40] + [
            "The blorf is full.",
            "Teh stack is full.",
            "The stacks is zqx full.",
        ]
        for text in texts:
            assert ours.repair(text) == oracle.repair(text), (budget, text)

    def test_unknown_word_candidates_never_end_the_search(self, dictionary, monkeypatch):
        # Deleting "zqx" is the repair.  Every candidate the search makes
        # before it edits "stack" and keeps "zqx"; they fill the budget
        # of one, but only a candidate of known words ends the search.
        ours = SentenceRepairer(dictionary)
        oracle = ParseEveryCandidateRepairer(dictionary)
        monkeypatch.setattr(ours, "max_candidates", 1)
        monkeypatch.setattr(oracle, "max_candidates", 1)
        text = "The stack zqx is full."
        expected = oracle.repair(text)
        assert ours.repair(text) == expected
        assert [r.text for r in expected] == ["The stack is full."]


_DICTIONARY = default_dictionary()
_WORDS = st.sampled_from(_vocabulary(_DICTIONARY))
_UNKNOWN = st.sampled_from(UNKNOWN_WORDS)


@given(
    words=st.lists(st.one_of(_WORDS, _WORDS, _UNKNOWN), min_size=1, max_size=6),
    terminator=st.sampled_from([".", "?", ""]),
    budget=st.sampled_from([1, 2, 5, 60]),
)
@settings(max_examples=60, deadline=None)
def test_drawn_word_sequences(words, terminator, budget):
    text = " ".join(words) + terminator
    ours = SentenceRepairer(_DICTIONARY, max_candidates=budget)
    oracle = ParseEveryCandidateRepairer(_DICTIONARY, max_candidates=budget)
    assert ours.repair(text) == oracle.repair(text)


class TestParserCalls:
    """Unknown-word candidates never reach the parser."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen: list[tuple[str, tuple[str, ...]]] = []
        parse, count = Parser.parse, Parser.count_linkages

        def traced_parse(self, text):
            seen.append(("parse", _words(text)))
            return parse(self, text)

        def traced_count(self, text, nulls=0):
            seen.append(("count", _words(text)))
            return count(self, text, nulls)

        monkeypatch.setattr(Parser, "parse", traced_parse)
        monkeypatch.setattr(Parser, "count_linkages", traced_count)
        return seen

    @pytest.mark.parametrize(
        "text",
        ["The blorf holds the data.", "Teh stack is full.", "The stack zqx is full."],
    )
    def test_only_the_baseline_parse_sees_unknown_words(self, dictionary, calls, text):
        repairer = SentenceRepairer(dictionary)
        repairer.repair(text)
        (first_kind, first_words), *candidates = calls
        assert (first_kind, first_words) == ("parse", tokenize(text).words)
        assert candidates
        for _kind, words in candidates:
            assert all(dictionary.is_known(word) for word in words), words

    def test_full_parse_only_after_a_positive_zero_null_count(self, dictionary, calls):
        repairer = SentenceRepairer(dictionary)
        repairer.repair("The stacks is full.")
        counted = {words for kind, words in calls[1:] if kind == "count"}
        parsed = [words for kind, words in calls[1:] if kind == "parse"]
        assert parsed
        probe = Parser(dictionary)
        for words in parsed:
            assert words in counted
            assert probe.count_linkages(TokenizedSentence(words, "", ""), 0) > 0


def _words(text: str | TokenizedSentence) -> tuple[str, ...]:
    return tokenize(text).words if isinstance(text, str) else text.words
