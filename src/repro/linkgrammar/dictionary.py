"""Link-grammar dictionaries: words and their linking requirements.

A dictionary maps word forms to formulas (see :mod:`repro.linkgrammar.formula`)
and expands them to disjuncts on demand.  Dictionaries can be built
programmatically (:meth:`Dictionary.define`) or loaded from the classic
dictionary text format used by the CMU parser, e.g.::

    % words and their linking requirements (Fig. 1 of the paper)
    a the: D+;
    cat mouse: {@A-} & D- & (S+ or O-);
    John: S+ or O-;
    ran: S-;
    chased: S- & O+;

Entries are ``word [word ...]: formula;`` and ``%`` starts a comment.
Two special word names configure behaviour:

* ``<UNKNOWN>`` — formula assigned to out-of-vocabulary tokens, letting the
  fault-tolerant parser keep going while flagging the token;
* ``<WALL>`` — the left wall, a virtual 0th word whose connectors anchor
  the sentence head (declaratives, questions, imperatives).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .cache import ParseCacheStore
from .disjunct import Disjunct, expand_cached
from .formula import Expr, FormulaError, Or, parse_formula
from .interning import ParseTables

UNKNOWN_WORD = "<UNKNOWN>"
WALL_WORD = "<WALL>"


class DictionaryError(ValueError):
    """Raised for malformed dictionary sources or duplicate definitions."""


@dataclass(slots=True)
class WordEntry:
    """A dictionary entry: a word form, its formula and its disjuncts."""

    word: str
    formula: Expr
    disjuncts: tuple[Disjunct, ...] = field(default_factory=tuple)

    @classmethod
    def from_formula(cls, word: str, formula: Expr) -> "WordEntry":
        # expand_cached: identical formulas (shared across word lists and
        # across dictionary rebuilds) expand to disjuncts exactly once.
        return cls(word=word, formula=formula, disjuncts=expand_cached(formula))


class Dictionary:
    """A mutable mapping from word forms to linking requirements.

    Lookups are case-insensitive (chat text is noisy); words are stored
    lower-cased.  Redefining a word merges the new formula with ``or`` so
    lexicon layers can extend earlier ones.
    """

    #: Entry bound of the per-dictionary shared parse cache.  Larger than
    #: a private parser cache (256): the shared store also absorbs the
    #: repairer's candidate parses without evicting hot chat sentences.
    SHARED_CACHE_ENTRIES = 2048

    def __init__(self, name: str = "anonymous") -> None:
        self.name = name
        self._entries: dict[str, WordEntry] = {}
        self._version = 0
        self._tables: ParseTables | None = None
        self._tables_version = -1
        self._tables_lock = threading.Lock()
        self._shared_cache: ParseCacheStore | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def words(self) -> list[str]:
        """All defined word forms, sorted."""
        return sorted(self._entries)

    def define(self, words: str | Iterable[str], formula: str | Expr) -> None:
        """Define (or extend) one or more word forms with a formula.

        Args:
            words: a single word, a space-separated string of words, or an
                iterable of words — mirroring the file format's word lists.
            formula: formula source text or a pre-parsed AST.
        """
        if isinstance(words, str):
            word_list = words.split()
        else:
            word_list = list(words)
        if not word_list:
            raise DictionaryError("no words given")
        expr = parse_formula(formula) if isinstance(formula, str) else formula
        for word in word_list:
            key = word.lower()
            existing = self._entries.get(key)
            if existing is None:
                self._entries[key] = WordEntry.from_formula(key, expr)
            else:
                merged = Or((existing.formula, expr))
                self._entries[key] = WordEntry.from_formula(key, merged)
        self._version += 1

    def lookup(self, word: str) -> WordEntry | None:
        """The entry for ``word``, or the ``<UNKNOWN>`` entry, or None."""
        entry = self._entries.get(word.lower())
        if entry is not None:
            return entry
        return self._entries.get(UNKNOWN_WORD.lower())

    def lookup_exact(self, word: str) -> WordEntry | None:
        """The entry for ``word`` with no unknown-word fallback."""
        return self._entries.get(word.lower())

    def is_known(self, word: str) -> bool:
        """True if ``word`` is defined (ignoring the unknown-word fallback)."""
        return word.lower() in self._entries

    @property
    def wall_entry(self) -> WordEntry | None:
        """The left-wall entry, if this dictionary defines one."""
        return self._entries.get(WALL_WORD.lower())

    @property
    def version(self) -> int:
        """Generation counter, bumped by every :meth:`define`.

        Consumers that cache derived structures (the parse tables below,
        the parser's sentence cache) key them by this counter so a
        mutated dictionary never serves stale answers.
        """
        return self._version

    @property
    def tables(self) -> ParseTables:
        """The interned-connector parse tables for the current generation.

        Built lazily on first parse and rebuilt only when the dictionary
        changes; every parse session of the same generation shares one
        instance.
        """
        if self._tables is None or self._tables_version != self._version:
            # Parallel-mode pool threads may race the first build after a
            # generation bump; the lock keeps it to one rebuild.  Assign
            # the tables before the version so a lock-free reader never
            # pairs fresh version with stale tables.
            with self._tables_lock:
                if self._tables is None or self._tables_version != self._version:
                    self._tables = ParseTables.build(
                        {word: entry.disjuncts for word, entry in self._entries.items()}
                    )
                    self._tables_version = self._version
        return self._tables

    def shared_cache_store(self, max_entries: int | None = None) -> ParseCacheStore:
        """The dictionary-scoped :class:`ParseCacheStore` shared by consumers.

        Created lazily on first request and handed to every later caller,
        so all parsers that opt in (Learning_Angel's analyzer, the
        sentence repairer, any future component) hit one store.  The
        store purges itself whenever this dictionary's generation moves,
        so sharing never serves stale parses.
        """
        if self._shared_cache is None:
            self._shared_cache = ParseCacheStore(
                self.SHARED_CACHE_ENTRIES if max_entries is None else max_entries
            )
        return self._shared_cache

    def disjunct_count(self) -> int:
        """Total number of disjuncts across all entries (a size metric).

        The ablation benchmark uses this to measure the dictionary
        maintenance cost of the paper's rejected Semantic-Link-Grammar
        methodology against the ontology methodology.
        """
        return sum(len(entry.disjuncts) for entry in self._entries.values())

    def merge(self, other: "Dictionary") -> None:
        """Fold every entry of ``other`` into this dictionary."""
        for key, entry in other._entries.items():
            self.define(key, entry.formula)

    @classmethod
    def from_text(cls, source: str, name: str = "text") -> "Dictionary":
        """Parse the classic dictionary file format.

        Entries are ``word [word ...]: formula;``; ``%`` comments run to
        end of line; whitespace (including newlines) is free-form.
        """
        dictionary = cls(name=name)
        stripped_lines = []
        for line in source.splitlines():
            comment = line.find("%")
            stripped_lines.append(line if comment < 0 else line[:comment])
        body = "\n".join(stripped_lines)
        for index, raw_entry in enumerate(body.split(";")):
            entry = raw_entry.strip()
            if not entry:
                continue
            if ":" not in entry:
                raise DictionaryError(f"entry {index} has no ':' separator: {entry!r}")
            words_part, _, formula_part = entry.partition(":")
            words = words_part.split()
            if not words:
                raise DictionaryError(f"entry {index} defines no words: {entry!r}")
            if not formula_part.strip():
                raise DictionaryError(f"entry {index} has an empty formula: {entry!r}")
            try:
                dictionary.define(words, formula_part.strip())
            except FormulaError as exc:
                raise DictionaryError(f"entry {index} ({words_part.strip()!r}): {exc}") from exc
        return dictionary

    def to_text(self) -> str:
        """Serialise back to the dictionary file format (sorted by word)."""
        lines = [f"% dictionary {self.name!r}: {len(self)} words"]
        for word in self.words():
            lines.append(f"{word}: {self._entries[word].formula};")
        return "\n".join(lines) + "\n"
