"""The knowledge-ontology object model (paper section 2.2, Figure 5).

The paper's Distance Learning Ontology is a *domain ontology*: a knowledge
body of **KeyItems** (concepts such as Array, Stack, Tree), each carrying a
**Definition** (description plus named symbols), **Operations** (SubItems
such as push/pop with their own ids — Fig. 5 shows push=32, pop=33 under
Stack), **Algorithms** (typed code attachments, e.g. ``type="c"``), and
typed **Relations** to other items.  Items are addressable both by numeric
id and by (multi-word) name; ids are what the Sentence Distance Evaluation
of section 4.3 looks up ("the id of the keywords 'tree' and 'pop' is 4
and 33").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


class OntologyError(ValueError):
    """Raised for malformed or inconsistent ontology operations."""


class ItemKind(Enum):
    """What an ontology item denotes."""

    CONCEPT = "concept"        # KeyItem: a data structure / domain entity
    OPERATION = "operation"    # SubItem: a method such as push or pop
    PROPERTY = "property"      # a characteristic such as LIFO
    ALGORITHM = "algorithm"    # a named procedure such as binary search


class RelationKind(Enum):
    """Typed edges of the knowledge body.

    Weights encode semantic closeness for the Sentence Distance
    Evaluation: taxonomic and structural edges are tighter than loose
    associative ones.
    """

    IS_A = "is-a"
    HAS_OPERATION = "has-operation"
    HAS_PROPERTY = "has-property"
    PART_OF = "part-of"
    USES = "uses"
    IMPLEMENTED_WITH = "implemented-with"
    RELATED_TO = "related-to"

    @property
    def weight(self) -> float:
        return _RELATION_WEIGHTS[self]


_RELATION_WEIGHTS: dict[RelationKind, float] = {
    RelationKind.IS_A: 1.0,
    RelationKind.HAS_OPERATION: 1.0,
    RelationKind.HAS_PROPERTY: 1.0,
    RelationKind.PART_OF: 1.0,
    RelationKind.USES: 2.0,
    RelationKind.IMPLEMENTED_WITH: 2.0,
    RelationKind.RELATED_TO: 2.0,
}


@dataclass(slots=True)
class Definition:
    """A KeyItem's definition: free-text description plus named symbols."""

    description: str = ""
    symbols: dict[str, str] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.description and not self.symbols


@dataclass(slots=True)
class Algorithm:
    """A typed algorithm attachment (Fig. 5: ``Algorithm type="c"``)."""

    name: str
    type: str = "text"
    body: str = ""


@dataclass(slots=True)
class Item:
    """One ontology item: a KeyItem (concept) or SubItem (operation) etc.

    Attributes:
        item_id: stable numeric id, unique within the ontology.
        name: canonical lower-case name; may be multi-word.
        kind: concept / operation / property / algorithm.
        category: free-form grouping ("container", "measure", ...).
        definition: textual definition (mostly for concepts).
        aliases: alternative names resolving to this item.
        algorithms: attached algorithm texts.
    """

    item_id: int
    name: str
    kind: ItemKind = ItemKind.CONCEPT
    category: str = ""
    definition: Definition = field(default_factory=Definition)
    aliases: tuple[str, ...] = ()
    algorithms: list[Algorithm] = field(default_factory=list)

    def all_names(self) -> tuple[str, ...]:
        return (self.name,) + self.aliases


@dataclass(frozen=True, slots=True)
class Relation:
    """A typed, directed relation ``source --kind--> target`` (by id)."""

    source: int
    kind: RelationKind
    target: int


class Ontology:
    """The knowledge body: items plus typed relations.

    Items are indexed by id and by every name/alias (lower-cased).  The
    class is a plain in-memory store; graph analytics live in
    :mod:`repro.ontology.graph` and :mod:`repro.ontology.distance`.
    """

    def __init__(self, domain: str = "Data Structure") -> None:
        self.domain = domain
        self._items: dict[int, Item] = {}
        self._by_name: dict[str, int] = {}
        self._relations: list[Relation] = []
        self._relation_set: set[Relation] = set()
        self._generation = 0
        self._index: _Index | None = None

    @property
    def generation(self) -> int:
        """Generation counter, bumped by every :meth:`add_item` and every
        :meth:`add_relation` that adds a relation.

        Consumers that cache derived structures (the structural index
        below, :class:`~repro.ontology.graph.OntologyGraph`'s adjacency
        and distance rows) key them by this counter so a mutated
        ontology never serves stale answers.
        """
        return self._generation

    def _structure(self) -> _Index:
        """The structural index of the current generation.

        Built on the first query after a mutation.  The build works on
        locals only and is published by one attribute assignment, so a
        concurrent reader sees either the previous index or the whole
        new one; two threads racing the same build publish equal tables.
        """
        index = self._index
        if index is None or index.generation != self._generation:
            index = _Index(self)
            self._index = index
        return index

    # ------------------------------------------------------------- storage

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: int | str) -> bool:
        if isinstance(key, int):
            return key in self._items
        return key.lower() in self._by_name

    def items(self) -> Iterator[Item]:
        """All items in id order."""
        for item_id in sorted(self._items):
            yield self._items[item_id]

    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations)

    def add_item(self, item: Item) -> Item:
        """Register an item; ids and names must be unique."""
        if item.item_id in self._items:
            raise OntologyError(f"duplicate item id {item.item_id}")
        for name in item.all_names():
            key = name.lower()
            if key in self._by_name:
                raise OntologyError(f"duplicate item name {name!r}")
        self._items[item.item_id] = item
        for name in item.all_names():
            self._by_name[name.lower()] = item.item_id
        self._generation += 1
        return item

    def add_relation(self, source: int | str, kind: RelationKind, target: int | str) -> Relation:
        """Add a typed relation; both endpoints must exist."""
        relation = Relation(self.resolve(source).item_id, kind, self.resolve(target).item_id)
        if relation in self._relation_set:
            return relation
        self._relations.append(relation)
        self._relation_set.add(relation)
        self._generation += 1
        return relation

    # -------------------------------------------------------------- lookup

    def get(self, item_id: int) -> Item:
        item = self._items.get(item_id)
        if item is None:
            raise OntologyError(f"no item with id {item_id}")
        return item

    def find(self, name: str) -> Item | None:
        """Item by name or alias (case-insensitive), or None."""
        item_id = self._by_name.get(name.lower())
        return self._items[item_id] if item_id is not None else None

    def resolve(self, key: int | str) -> Item:
        """Item by id or by name; raises when missing."""
        if isinstance(key, int):
            return self.get(key)
        item = self.find(key)
        if item is None:
            raise OntologyError(f"no item named {key!r}")
        return item

    def term_index(self) -> dict[str, int]:
        """Every name and alias (lower-case) mapped to its item id."""
        return dict(self._by_name)

    def items_of_kind(self, kind: ItemKind) -> list[Item]:
        return [item for item in self.items() if item.kind == kind]

    # ----------------------------------------------------------- relations

    def relations_from(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        source = self.resolve(key).item_id
        return list(self._structure().outgoing.get((source, kind), ()))

    def relations_to(self, key: int | str, kind: RelationKind | None = None) -> list[Relation]:
        target = self.resolve(key).item_id
        return list(self._structure().incoming.get((target, kind), ()))

    def parents(self, key: int | str) -> list[Item]:
        """IS-A parents of an item."""
        return list(self._structure().parents[self.resolve(key).item_id])

    def ancestors(self, key: int | str) -> list[Item]:
        """All transitive IS-A ancestors, nearest first (BFS order)."""
        return list(self._structure().ancestors[self.resolve(key).item_id])

    def operations_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        """Operations supported by a concept, optionally via IS-A chains."""
        return list(self._structure().operations[inherit][self.resolve(key).item_id])

    def has_operation(self, concept: int | str, operation: int | str, inherit: bool = True) -> bool:
        """Does ``concept`` support ``operation`` (directly or inherited)?"""
        target = self.resolve(operation).item_id
        return target in self._structure().operation_ids[inherit][self.resolve(concept).item_id]

    def concepts_with_operation(self, operation: int | str, inherit: bool = True) -> list[Item]:
        """All concepts supporting ``operation``, in id order — the QA
        template "Which data structure has the method X?"."""
        target = self.resolve(operation).item_id
        return list(self._structure().concepts_by_operation[inherit].get(target, ()))

    def properties_of(self, key: int | str, inherit: bool = True) -> list[Item]:
        """Properties of a concept (LIFO, FIFO, ...), optionally inherited."""
        return list(self._structure().properties[inherit][self.resolve(key).item_id])

    def validate(self) -> list[str]:
        """Consistency problems (dangling relations, IS-A cycles)."""
        index = self._structure()
        problems = [f"dangling relation {relation}" for relation in index.dangling]
        # IS-A cycles would make inheritance loop forever conceptually.
        problems.extend(
            f"is-a cycle through {item.name!r}"
            for item in index.items
            if item.item_id in index.cyclic
        )
        return problems


class _Index:
    """The structural tables of one ontology generation.

    Every query of :class:`Ontology` reads these instead of scanning the
    relation list.  Built whole from one generation and never mutated
    afterwards; the public API copies what it hands out.

    Attributes:
        generation: the ontology generation the tables describe.
        items: every item in id order.
        outgoing / incoming: relations keyed by ``(source, kind)`` and
            ``(target, kind)`` in insertion order; kind ``None`` keys all
            kinds of one endpoint.
        parents: each item's IS-A parents, in insertion order.
        ancestors: each item's transitive IS-A ancestors in BFS order,
            nearest first, excluding the item itself.
        operations / properties: ``[inherit][item_id]`` -> ordered tuple
            of the targets of the item's (and, when inheriting, its
            ancestors') has-operation / has-property relations, first
            occurrence wins.
        operation_ids: the same operation sets as frozensets of ids.
        concepts_by_operation: ``[inherit][operation_id]`` -> the concepts
            supporting it, in id order.
        dangling: relations whose endpoint is not an item (the public API
            cannot create one).
        cyclic: ids of the items that lie on an IS-A cycle.
    """

    __slots__ = (
        "generation", "items", "outgoing", "incoming", "parents", "ancestors",
        "operations", "operation_ids", "properties", "concepts_by_operation",
        "dangling", "cyclic",
    )

    def __init__(self, ontology: Ontology) -> None:
        # Stamp before reading: a mutation racing the build leaves this
        # index stale by generation, so the next query rebuilds it.
        self.generation = ontology._generation
        items_by_id = dict(ontology._items)
        self.items = tuple(items_by_id[item_id] for item_id in sorted(items_by_id))
        outgoing: dict[tuple[int, RelationKind | None], list[Relation]] = {}
        incoming: dict[tuple[int, RelationKind | None], list[Relation]] = {}
        dangling = []
        for relation in tuple(ontology._relations):
            if relation.source not in items_by_id or relation.target not in items_by_id:
                dangling.append(relation)
                continue
            for key in ((relation.source, relation.kind), (relation.source, None)):
                outgoing.setdefault(key, []).append(relation)
            for key in ((relation.target, relation.kind), (relation.target, None)):
                incoming.setdefault(key, []).append(relation)
        self.outgoing = {key: tuple(value) for key, value in outgoing.items()}
        self.incoming = {key: tuple(value) for key, value in incoming.items()}
        self.dangling = tuple(dangling)

        def targets(item_id: int, kind: RelationKind) -> list[int]:
            return [r.target for r in self.outgoing.get((item_id, kind), ())]

        parent_ids = {item_id: targets(item_id, RelationKind.IS_A) for item_id in items_by_id}
        ancestor_ids = {item_id: _bfs_ancestors(item_id, parent_ids) for item_id in items_by_id}
        self.parents = {
            item_id: tuple(items_by_id[p] for p in parents)
            for item_id, parents in parent_ids.items()
        }
        self.ancestors = {
            item_id: tuple(items_by_id[a] for a in ancestors)
            for item_id, ancestors in ancestor_ids.items()
        }
        self.cyclic = frozenset(
            item_id
            for item_id, ancestors in ancestor_ids.items()
            if any(item_id in parent_ids[node] for node in (item_id, *ancestors))
        )

        def closure(kind: RelationKind, inherit: bool) -> dict[int, tuple[Item, ...]]:
            table = {}
            for item_id in items_by_id:
                sources = (item_id, *ancestor_ids[item_id]) if inherit else (item_id,)
                found = dict.fromkeys(t for source in sources for t in targets(source, kind))
                table[item_id] = tuple(items_by_id[t] for t in found)
            return table

        self.operations = {
            inherit: closure(RelationKind.HAS_OPERATION, inherit) for inherit in (False, True)
        }
        self.properties = {
            inherit: closure(RelationKind.HAS_PROPERTY, inherit) for inherit in (False, True)
        }
        self.operation_ids = {
            inherit: {
                item_id: frozenset(op.item_id for op in ops) for item_id, ops in table.items()
            }
            for inherit, table in self.operations.items()
        }
        self.concepts_by_operation = {}
        for inherit, table in self.operations.items():
            by_operation: dict[int, list[Item]] = {}
            for item in self.items:
                if item.kind == ItemKind.CONCEPT:
                    for operation in table[item.item_id]:
                        by_operation.setdefault(operation.item_id, []).append(item)
            self.concepts_by_operation[inherit] = {
                op_id: tuple(concepts) for op_id, concepts in by_operation.items()
            }


def _bfs_ancestors(start: int, parent_ids: dict[int, list[int]]) -> list[int]:
    """Transitive IS-A ancestors of ``start``, level by level, each level
    in parent-insertion order; terminates on cycles and never lists
    ``start`` itself."""
    seen: dict[int, None] = {}
    frontier = [start]
    while frontier:
        next_frontier: list[int] = []
        for node in frontier:
            for target in parent_ids[node]:
                if target not in seen and target != start:
                    seen[target] = None
                    next_frontier.append(target)
        frontier = next_frontier
    return list(seen)


def next_free_id(ontology: Ontology, start: int = 1) -> int:
    """Smallest unused id >= start (helper for builders)."""
    current = start
    while current in ontology:
        current += 1
    return current
