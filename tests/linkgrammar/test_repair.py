"""Sentence repair: single-edit corrections of learner sentences."""

from __future__ import annotations

import pytest

from repro.linkgrammar.repair import SentenceRepairer
from repro.linkgrammar.lexicon import default_dictionary


@pytest.fixture(scope="module")
def repairer():
    return SentenceRepairer(default_dictionary())


class TestRepairs:
    def test_agreement_fixed_both_ways(self, repairer):
        repairs = repairer.repair("The stacks is full.")
        texts = [r.text for r in repairs]
        assert "The stack is full." in texts
        assert "The stacks are full." in texts

    def test_verb_form_fixed(self, repairer):
        repairs = repairer.repair("The stack hold the data.")
        texts = [r.text for r in repairs]
        assert "The stack holds the data." in texts

    def test_extra_word_removed(self, repairer):
        repairs = repairer.repair("The stack holds quickly data.")
        assert repairs
        assert repairs[0].null_count == 0

    def test_double_determiner_removed(self, repairer):
        repairs = repairer.repair("The a stack is full.")
        texts = [r.text for r in repairs]
        assert "A stack is full." in texts or "The stack is full." in texts

    def test_word_order_swap(self, repairer):
        repairs = repairer.repair("The stack full is.")
        texts = [r.text for r in repairs]
        assert "The stack is full." in texts

    def test_edit_descriptions_are_informative(self, repairer):
        repairs = repairer.repair("The stacks is full.")
        assert all("'" in r.edit for r in repairs)


class TestNonRepairs:
    def test_correct_sentence_returns_nothing(self, repairer):
        assert repairer.repair("The stack is full.") == []

    def test_empty_sentence(self, repairer):
        assert repairer.repair("") == []

    def test_repairs_never_contain_unknown_words(self, repairer):
        repairs = repairer.repair("The blorf holds the data.")
        for repair in repairs:
            assert "blorf" not in repair.text

    def test_repairs_strictly_improve(self, repairer):
        baseline = repairer.parser.parse("The stacks is full.")
        for repair in repairer.repair("The stacks is full."):
            assert (repair.null_count, repair.cost) < (
                baseline.null_count,
                baseline.best.cost if baseline.best else 0,
            )


class TestRanking:
    def test_results_sorted_best_first(self, repairer):
        repairs = repairer.repair("Stack is a data structure the.")
        keys = [r.sort_key() for r in repairs]
        assert keys == sorted(keys)

    def test_max_results_respected(self):
        repairer = SentenceRepairer(default_dictionary(), max_results=1)
        assert len(repairer.repair("The stacks is full.")) == 1

    def test_function_words_not_mangled(self, repairer):
        # 'the' must never be inflected like a verb ('thing').
        repairs = repairer.repair("The the stack is full.")
        for repair in repairs:
            assert "thing" not in repair.text.lower()


class TestDictionaryGrowth:
    def test_variants_follow_a_define(self):
        from repro.linkgrammar.lexicon import build_domain_dictionary

        dictionary = build_domain_dictionary()  # private: safe to grow
        repairer = SentenceRepairer(dictionary)
        sentence = "The stack holds a blorfs."
        repairer.repair(sentence)  # caches the (empty) variants of "blorfs"
        dictionary.define("blorf", dictionary.lookup("data").formula)
        dictionary.define("blorfs", dictionary.lookup("stacks").formula)
        fresh = SentenceRepairer(dictionary)
        assert [r.text for r in repairer.repair(sentence)] == [
            r.text for r in fresh.repair(sentence)
        ]
        assert "The stack holds a blorf." in [r.text for r in repairer.repair(sentence)]
