"""Concrete sentence repair: from diagnosis to suggested corrections.

The paper's abstract promises that the system "can thus give some
correction suggestions to users"; beyond pointing at corpus model
sentences, this module proposes *edits to the learner's own sentence*:

* delete an unlinkable word;
* insert a determiner before a bare singular noun;
* replace a word with another inflection of the same base (fixing
  subject-verb agreement and number errors);
* swap adjacent words (fixing local word-order slips).

Candidates are generated around the diagnosed trouble spots and checked
against the parser, and only candidates that parse strictly better
(fewer nulls, then lower cost) are offered, best first.  The search is
bounded, so repair stays interactive-fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import ParseCacheStore
from .dictionary import Dictionary
from .lexicon.builder import pluralize, verb_forms
from .parser import ParseOptions, Parser
from .tokenizer import TokenizedSentence, tokenize


@dataclass(frozen=True, slots=True)
class Repair:
    """One suggested correction.

    Attributes:
        text: the repaired sentence.
        edit: human-readable description of the edit.
        null_count: nulls of the repaired parse (0 = fully grammatical).
        cost: parse cost of the repaired parse.
    """

    text: str
    edit: str
    null_count: int
    cost: int

    def sort_key(self) -> tuple[int, int, int]:
        return (self.null_count, self.cost, len(self.text))


class SentenceRepairer:
    """Bounded search over single-edit repairs of a faulty sentence."""

    def __init__(
        self,
        dictionary: Dictionary,
        max_candidates: int = 60,
        max_results: int = 3,
        options: ParseOptions | None = None,
        cache_store: ParseCacheStore | None = None,
    ) -> None:
        self.dictionary = dictionary
        # Repair only reads null_count / linkage presence / best cost,
        # and enumeration stops at max(max_linkages * 4, 256) linkages
        # *before* cost-sorting — so every ``max_linkages`` up to 64
        # enumerates the identical 256-linkage window and produces
        # identical repairs.  Callers that share a cache store pass
        # their own options so both components carry the same key
        # fingerprint and really share; above 64 the window (and hence
        # possibly the best cost) changes, which LearningAngelAgent
        # guards against by falling back to the default options.
        self.parser = Parser(
            dictionary, options or ParseOptions(max_linkages=8), cache_store=cache_store
        )
        self.max_candidates = max_candidates
        self.max_results = max_results
        # Inflection variants by word, for one dictionary version: a
        # newly defined word can be another word's variant.
        self._variant_cache: dict[str, tuple[str, ...]] = {}
        self._variant_version = dictionary.version

    # ----------------------------------------------------------------- API

    def repair(self, text: str | TokenizedSentence) -> list[Repair]:
        """Suggest up to ``max_results`` single-edit corrections.

        Accepts raw or pre-tokenised input.  Returns an empty list when
        the sentence is already fully grammatical or nothing parses
        better.

        Each candidate costs only what the decision needs.  A candidate
        with a word the dictionary does not know is skipped unparsed.
        It still counts as seen, but it skips the ``max_candidates``
        budget check, so the search only stops right after trying a
        candidate whose words are all known.  Those first get a
        zero-null linkage count, and only the ones with a positive count
        are fully parsed for their best cost.
        """
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
            tokens = tokenize(candidate)
            if not all(map(self.dictionary.is_known, tokens.words)):
                continue
            # A repair must be *fully* grammatical — a partial improvement
            # would still draw a Learning_Angel warning.
            if self.parser.count_linkages(tokens, 0):
                result = self.parser.parse(tokens)
                cost = result.best.cost if result.best else 0
                if result.null_count == 0 and result.linkages and (0, cost) < base_key:
                    repairs.append(Repair(text=candidate, edit=edit, null_count=0, cost=cost))
            if len(seen) >= self.max_candidates:
                break
        repairs.sort(key=Repair.sort_key)
        return repairs[: self.max_results]

    # ------------------------------------------------------------ internal

    def _trouble_spots(self, baseline, n_words: int) -> list[int]:
        """Word positions to edit around: null words (or everywhere when
        the parse collapsed)."""
        best = baseline.best
        offset = 1 if baseline.has_wall else 0
        if best is None or len(best.null_words) > max(1, n_words // 2):
            return list(range(n_words))
        positions = sorted(
            index - offset for index in best.null_words if index - offset >= 0
        )
        # Include neighbours: the unlinkable word is sometimes fine and its
        # neighbour is the real problem (agreement).
        expanded: list[int] = []
        for position in positions:
            for candidate in (position - 1, position, position + 1):
                if 0 <= candidate < n_words and candidate not in expanded:
                    expanded.append(candidate)
        return expanded or list(range(n_words))

    def _candidates(self, words: list[str], terminator: str, trouble: list[int]):
        """Yield (candidate sentence, edit description) pairs."""

        def render(tokens: list[str]) -> str:
            sentence = " ".join(tokens)
            return (sentence[:1].upper() + sentence[1:] + terminator) if sentence else ""

        for position in trouble:
            word = words[position]
            # 1. Delete the word.
            reduced = words[:position] + words[position + 1 :]
            if reduced:
                yield render(reduced), f"remove '{word}'"
            # 2. Replace with an inflectional variant.
            for variant in self._variants(word):
                changed = list(words)
                changed[position] = variant
                yield render(changed), f"change '{word}' to '{variant}'"
            # 3. Insert a determiner before the word.
            if word not in ("a", "an", "the"):
                for determiner in ("the", "a"):
                    inserted = words[:position] + [determiner] + words[position:]
                    yield render(inserted), f"insert '{determiner}' before '{word}'"
            # 4. Swap with the next word.
            if position + 1 < len(words):
                swapped = list(words)
                swapped[position], swapped[position + 1] = (
                    swapped[position + 1],
                    swapped[position],
                )
                yield render(swapped), f"swap '{word}' and '{words[position + 1]}'"

    def _variants(self, word: str) -> tuple[str, ...]:
        """Other known inflections sharing this word's base."""
        if self._variant_version != self.dictionary.version:
            self._variant_cache = {}
            self._variant_version = self.dictionary.version
        cached = self._variant_cache.get(word)
        if cached is not None:
            return cached
        variants: list[str] = []
        lower = word.lower()
        if lower in _CLOSED_CLASS_WORDS:
            # Function words only swap via the explicit table below;
            # morphology rules misfire on them ("the" -> "thing").
            unique = tuple(
                swap_to
                for swap_from, swap_to in _CLOSED_CLASS_SWAPS
                if lower == swap_from and self.dictionary.is_known(swap_to)
            )
            self._variant_cache[word] = unique
            return unique
        # Noun number: singular <-> plural.
        plural = pluralize(lower)
        if plural != lower and self.dictionary.is_known(plural):
            variants.append(plural)
        if lower.endswith("s"):
            singular = lower[:-1]
            if self.dictionary.is_known(singular) and pluralize(singular) == lower:
                variants.append(singular)
        # Verb forms of this word (as base) and bases this word inflects.
        third, past, participle, gerund = verb_forms(lower)
        for form in (third, past, participle, gerund):
            if form != lower and self.dictionary.is_known(form):
                variants.append(form)
        for swap_from, swap_to in _CLOSED_CLASS_SWAPS:
            if lower == swap_from and self.dictionary.is_known(swap_to):
                variants.append(swap_to)
        unique = tuple(dict.fromkeys(variants))
        self._variant_cache[word] = unique
        return unique


_CLOSED_CLASS_WORDS = frozenset(
    {
        "a", "an", "the", "this", "that", "these", "those", "is", "are",
        "was", "were", "has", "have", "does", "do", "did", "doesn't",
        "don't", "not", "to", "of", "in", "on", "at", "into", "onto",
        "from", "with", "by", "for", "and", "or", "we", "i", "you",
        "they", "he", "she", "it",
    }
)

_CLOSED_CLASS_SWAPS = [
    ("is", "are"), ("are", "is"), ("was", "were"), ("were", "was"),
    ("has", "have"), ("have", "has"), ("does", "do"), ("do", "does"),
    ("doesn't", "don't"), ("don't", "doesn't"), ("a", "an"), ("an", "a"),
    ("this", "these"), ("these", "this"), ("that", "those"), ("those", "that"),
]
