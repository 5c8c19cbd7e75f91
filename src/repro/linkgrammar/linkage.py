"""Linkages: complete link structures over a sentence.

A linkage assigns every linked word one of its disjuncts and draws labelled
links between word pairs so that (paper, section 2.1):

* **Planarity** — links drawn above the sentence do not cross;
* **Connectivity** — the links connect all (linked) words together;
* **Ordering** — each word's links on a side, read near-to-far, use its
  disjunct connectors in formula order;
* **Exclusion** — no two links connect the same pair of words.

The *enhanced* parser of the paper tolerates unlinked ("null") words, which
is how grammar errors are localised; a linkage therefore also records which
word positions are null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .connector import Connector, link_label
from .disjunct import Disjunct


@dataclass(frozen=True, slots=True)
class Link:
    """A single labelled link between word positions ``left`` < ``right``."""

    left: int
    right: int
    label: str
    left_connector: Connector | None = None
    right_connector: Connector | None = None

    def __post_init__(self) -> None:
        if self.left >= self.right:
            raise ValueError(f"link endpoints out of order: {self.left} >= {self.right}")

    @classmethod
    def from_connectors(cls, left: int, right: int, plus: Connector, minus: Connector) -> "Link":
        """Build a link from the matched connector pair."""
        return cls(
            left=left,
            right=right,
            label=link_label(plus, minus),
            left_connector=plus,
            right_connector=minus,
        )

    def crosses(self, other: "Link") -> bool:
        """True if this link and ``other`` would cross when drawn above."""
        a, b = sorted((self, other), key=lambda link: (link.left, link.right))
        return a.left < b.left < a.right < b.right

    def spans(self) -> tuple[int, int]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class Linkage:
    """A parse of a sentence: links plus per-word disjunct assignments.

    Attributes:
        words: the sentence tokens, including the virtual wall at index 0.
        links: the labelled links, sorted by (left, right).
        disjuncts: per word, the satisfied disjunct or None for null words.
        cost: total disjunct cost (from ``[...]`` brackets in formulas).
        null_words: indices of words left unlinked by the robust parser.
    """

    words: tuple[str, ...]
    links: tuple[Link, ...]
    disjuncts: tuple[Disjunct | None, ...] = field(default_factory=tuple)
    cost: int = 0
    null_words: frozenset[int] = frozenset()

    @property
    def null_count(self) -> int:
        """Number of unlinked words (0 for a fully grammatical parse)."""
        return len(self.null_words)

    @property
    def total_link_length(self) -> int:
        """Sum of link spans; shorter totals are preferred as tie-breaks."""
        return sum(link.right - link.left for link in self.links)

    def sort_key(self) -> tuple[int, int, int]:
        """Canonical ranking: fewest nulls, lowest cost, shortest links."""
        return (self.null_count, self.cost, self.total_link_length)

    def links_at(self, index: int) -> list[Link]:
        """All links touching the word at ``index``."""
        return [link for link in self.links if index in (link.left, link.right)]

    def partner_labels(self, index: int) -> list[tuple[str, int]]:
        """(label, partner index) pairs for the word at ``index``."""
        result = []
        for link in self.links:
            if link.left == index:
                result.append((link.label, link.right))
            elif link.right == index:
                result.append((link.label, link.left))
        return result

    def is_planar(self) -> bool:
        """Meta-rule check: no two links cross."""
        for i, first in enumerate(self.links):
            for second in self.links[i + 1 :]:
                if first.crosses(second):
                    return False
        return True

    def is_connected(self) -> bool:
        """Meta-rule check: links connect all non-null words together."""
        linked = [i for i in range(len(self.words)) if i not in self.null_words]
        if len(linked) <= 1:
            return True
        adjacency: dict[int, set[int]] = {i: set() for i in linked}
        for link in self.links:
            adjacency.setdefault(link.left, set()).add(link.right)
            adjacency.setdefault(link.right, set()).add(link.left)
        seen = {linked[0]}
        stack = [linked[0]]
        while stack:
            node = stack.pop()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return all(word in seen for word in linked)

    def satisfies_exclusion(self) -> bool:
        """Meta-rule check: no duplicated word pair among the links."""
        pairs = [link.spans() for link in self.links]
        return len(pairs) == len(set(pairs))

    def satisfies_ordering(self) -> bool:
        """Meta-rule check: every linked word uses its disjunct's connectors.

        Counts each word's links on either side and compares the counts
        with its disjunct.  A side without a multi-connector needs exactly
        one link per connector; a side with one (``@``) needs at least
        one link per connector, since the multi-connector may take more.
        The near-to-far order of the links is fixed by the parser's
        matching, not re-checked here.
        """
        left_links: dict[int, int] = {}
        right_links: dict[int, int] = {}
        for link in self.links:
            left_links[link.right] = left_links.get(link.right, 0) + 1
            right_links[link.left] = right_links.get(link.left, 0) + 1
        for index, disjunct in enumerate(self.disjuncts):
            if disjunct is None:
                continue
            for have, connectors in (
                (left_links.get(index, 0), disjunct.left),
                (right_links.get(index, 0), disjunct.right),
            ):
                need = len(connectors)
                if have < need or (have > need and not any(c.multi for c in connectors)):
                    return False
        return True

    def validate(self) -> list[str]:
        """All violated meta-rules, by name; empty when fully valid."""
        violations = []
        if not self.is_planar():
            violations.append("planarity")
        if not self.is_connected():
            violations.append("connectivity")
        if not self.satisfies_ordering():
            violations.append("ordering")
        if not self.satisfies_exclusion():
            violations.append("exclusion")
        return violations

    def link_summary(self) -> str:
        """Compact one-line rendering, e.g. ``D(the,cat) S(cat,chased)``."""
        parts = []
        for link in sorted(self.links, key=lambda l: (l.left, l.right)):
            parts.append(f"{link.label}({self.words[link.left]},{self.words[link.right]})")
        return " ".join(parts)
