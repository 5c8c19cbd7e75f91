"""Seeded chat traffic with ground-truth labels.

The benchmark owns its traffic: nothing here imports the program, so a
change to the program's own simulator cannot silently change what the
benchmark sends.  The vocabulary below is data copied from the default
data-structures ontology and lexicon.

Every post carries the label the generator meant it to have:

* ``clean``    -- a correct statement (or on-topic chit-chat);
* ``syntax``   -- a correct statement with one injected learner error;
* ``semantic`` -- well-formed, but wrong about the domain;
* ``question`` -- a question in one of the QA template families.

Run ``python3 bench/traffic.py`` for the determinism self-test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Iterator

LABELS = ("clean", "syntax", "semantic", "question")

# --- vocabulary (data from the default ontology) -------------------------

SUPPORTED = {
    "array": ("search", "sort", "swap", "update"),
    "stack": ("delete", "insert", "peek", "pop", "push", "search", "traverse"),
    "tree": ("delete", "insert", "search", "traverse"),
    "queue": ("delete", "dequeue", "enqueue", "insert", "peek", "search", "traverse"),
    "heap": ("delete", "insert", "merge", "peek", "search", "traverse"),
    "graph": ("delete", "insert", "search", "traverse"),
    "deque": ("append", "delete", "insert", "peek", "pop", "prepend", "search", "traverse"),
    "list": ("delete", "insert", "search", "traverse"),
    "set": ("delete", "insert", "merge"),
}
CONTAINERS = tuple(SUPPORTED)
OPERATIONS = (
    "insert", "delete", "push", "pop", "peek", "enqueue", "dequeue", "traverse",
    "search", "sort", "append", "prepend", "merge", "split", "rotate", "balance",
    "update", "swap",
)
PARENTS = {
    "array": "data structure", "stack": "list", "tree": "data structure",
    "queue": "list", "heap": "binary tree", "graph": "data structure",
    "deque": "list", "list": "data structure", "set": "data structure",
}
PROPERTIES = (
    "lifo", "fifo", "sorted", "balanced", "linear", "hierarchical", "dynamic",
    "static", "contiguous", "complete",
)
HELD = {
    "array": ("static", "linear", "contiguous"),
    "stack": ("lifo", "linear"),
    "tree": ("hierarchical",),
    "queue": ("fifo", "linear"),
    "heap": ("complete", "hierarchical"),
    "graph": (),
    "deque": ("linear",),
    "list": ("linear",),
    "set": (),
}
PREPOSITIONS = {
    "push": "onto", "pop": "from", "insert": "into", "delete": "from",
    "enqueue": "into", "dequeue": "from", "append": "to", "prepend": "to",
    "search": "in",
}
ADJECTIVES = ("useful", "important", "simple", "efficient")
CHITCHAT = (
    "This course is difficult.",
    "I understand the example now.",
    "The homework is easy.",
    "Thanks.",
    "Yes.",
    "That is a good question.",
    "Please explain the example again.",
)

# --- learner-error injection (the classes non-native learners make) ------

ARTICLES = frozenset({"a", "an", "the"})
AGREEMENT_SWAPS = {
    "is": "are", "are": "is", "has": "have", "have": "has", "does": "do",
    "do": "does", "doesn't": "don't", "don't": "doesn't", "supports": "support",
}
PSEUDO_WORDS = ("blorf", "zkag", "fnord", "quux", "gribble", "snarf")

# --- classroom mix: the rates of the program's default learner profile ---

QUESTION_RATE = 0.20
CHITCHAT_RATE = 0.05
SEMANTIC_RATE = 0.10
SYNTAX_RATE = 0.15  # of the correct statements


@dataclass(frozen=True, slots=True)
class Post:
    """One chat post: where, who, what, and what it should be judged."""

    room: str
    user: str
    text: str
    label: str


def _article(noun: str) -> str:
    return "an" if noun[0] in "aeiou" else "a"


class _Sentences:
    """Seeded sentence maker over the vocabulary above."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def supported_pair(self) -> tuple[str, str]:
        concept = self.rng.choice(CONTAINERS)
        return concept, self.rng.choice(SUPPORTED[concept])

    def unsupported_pair(self) -> tuple[str, str]:
        while True:
            concept = self.rng.choice(CONTAINERS)
            operation = self.rng.choice(OPERATIONS)
            if operation not in SUPPORTED[concept]:
                return concept, operation

    def correct(self) -> str:
        rng = self.rng
        choice = rng.randrange(6)
        if choice == 0:
            concept, operation = self.supported_pair()
            subject = rng.choice(("We", "I", "You"))
            return f"{subject} {operation} the element {PREPOSITIONS.get(operation, 'into')} the {concept}."
        if choice == 1:
            concept, operation = self.supported_pair()
            return f"The {concept} supports the {operation} operation."
        if choice == 2:
            concept = rng.choice(CONTAINERS)
            parent = PARENTS[concept]
            return f"{_article(concept).capitalize()} {concept} is {_article(parent)} {parent}."
        if choice == 3:
            concept = rng.choice([c for c in CONTAINERS if HELD[c]])
            return f"The {concept} is {rng.choice(HELD[concept])}."
        if choice == 4:
            concept, operation = self.unsupported_pair()
            return f"The {concept} doesn't have the {operation} operation."
        return f"The {rng.choice(CONTAINERS)} is {rng.choice(ADJECTIVES)}."

    def violation(self) -> str:
        rng = self.rng
        choice = rng.randrange(3)
        if choice == 0:
            concept, operation = self.unsupported_pair()
            subject = rng.choice(("We", "I"))
            return f"{subject} {operation} the element {PREPOSITIONS.get(operation, 'into')} the {concept}."
        if choice == 1:
            concept, operation = self.unsupported_pair()
            return f"The {concept} supports the {operation} operation."
        while True:
            concept = rng.choice(CONTAINERS)
            prop = rng.choice(PROPERTIES)
            if prop not in HELD[concept]:
                return f"The {concept} is {prop}."

    def question(self) -> str:
        rng = self.rng
        choice = rng.randrange(5)
        if choice == 0:
            concept = rng.choice(CONTAINERS)
            return f"What is {_article(concept)} {concept}?"
        if choice == 1:
            pair = self.supported_pair() if rng.random() < 0.5 else self.unsupported_pair()
            concept, operation = pair
            return f"Does the {concept} have {_article(operation)} {operation} method?"
        if choice == 2:
            return f"Which data structure has the {rng.choice(OPERATIONS)} operation?"
        if choice == 3:
            return f"What operations does the {rng.choice(CONTAINERS)} support?"
        return f"The relations of {rng.choice(CONTAINERS)}?"

    def inject_error(self, text: str) -> str | None:
        """One learner error, or None when no error class applies."""
        rng = self.rng
        words = text[:-1].split()
        end = text[-1]
        kinds = ["article", "agreement", "order", "unknown"]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "article":
                spots = [i for i, w in enumerate(words) if w.lower() in ARTICLES]
                if spots:
                    del words[rng.choice(spots)]
                    return " ".join(words) + end
            elif kind == "agreement":
                spots = [i for i, w in enumerate(words) if w.lower() in AGREEMENT_SWAPS]
                if spots:
                    i = rng.choice(spots)
                    swapped = AGREEMENT_SWAPS[words[i].lower()]
                    words[i] = swapped.capitalize() if words[i][0].isupper() else swapped
                    return " ".join(words) + end
            elif kind == "order":
                if len(words) >= 3:
                    i = rng.randrange(len(words) - 1)
                    words[i], words[i + 1] = words[i + 1], words[i]
                    return " ".join(words) + end
            else:
                spots = [i for i, w in enumerate(words) if len(w) > 3 and w.lower() not in ARTICLES]
                if spots:
                    words[rng.choice(spots)] = rng.choice(PSEUDO_WORDS)
                    return " ".join(words) + end
        return None


class _Learner:
    """One simulated learner with a private random stream."""

    def __init__(self, room: str, name: str, seed: int) -> None:
        self.room = room
        self.name = name
        self.rng = random.Random(seed)
        self.sentences = _Sentences(self.rng)

    def next_post(self) -> Post:
        roll = self.rng.random()
        say = self.sentences
        if roll < QUESTION_RATE:
            return Post(self.room, self.name, say.question(), "question")
        roll -= QUESTION_RATE
        if roll < CHITCHAT_RATE:
            return Post(self.room, self.name, self.rng.choice(CHITCHAT), "clean")
        roll -= CHITCHAT_RATE
        if roll < SEMANTIC_RATE:
            return Post(self.room, self.name, say.violation(), "semantic")
        text = say.correct()
        if self.rng.random() < SYNTAX_RATE:
            broken = say.inject_error(text)
            if broken is not None:
                return Post(self.room, self.name, broken, "syntax")
        return Post(self.room, self.name, text, "clean")


class Traffic:
    """A workload's roster plus its infinite, seeded post stream."""

    def __init__(self, members: list[tuple[str, str]], stream: Iterator[Post]) -> None:
        self.members = members
        self.rooms = sorted({room for room, _ in members})
        self._stream = stream

    def __iter__(self) -> Iterator[Post]:
        return self._stream

    def take(self, count: int) -> list[Post]:
        return list(itertools.islice(self._stream, count))


def classroom(seed: int, rooms: int = 6, per_room: int = 5) -> Traffic:
    """Rooms of simulated learners posting the classroom mix.

    The next speaker is drawn uniformly from all learners, so rooms
    interleave the way independent classes sharing one server do.
    """
    master = random.Random(f"classroom:{seed}")
    learners = [
        _Learner(f"room-{r}", f"learner-{r}-{i}", master.randrange(1 << 62))
        for r in range(rooms)
        for i in range(per_room)
    ]

    def stream() -> Iterator[Post]:
        while True:
            yield master.choice(learners).next_post()

    return Traffic([(l.room, l.name) for l in learners], stream())


#: The cohort's fixed template set: (text, label).  Every template is
#: posted equally often, so a median over an even number of them would
#: fall on the boundary between two templates' costs and jump between
#: them from run to run: hence 25 templates, 13 of them replying.  The
#: replies come from two cost clusters, 2 cheap QA answers and 11
#: unsupported-operation corrections about four times as costly, so the
#: replying median lies well inside the second cluster, not at its edge.
TEMPLATES = (
    ("We push the element onto the stack.", "clean"),
    ("The queue supports the enqueue operation.", "clean"),
    ("A heap is a binary tree.", "clean"),
    ("The stack is lifo.", "clean"),
    ("The tree doesn't have the push operation.", "clean"),
    ("The graph is useful.", "clean"),
    ("You insert the element into the tree.", "clean"),
    ("The deque supports the prepend operation.", "clean"),
    ("A queue is a list.", "clean"),
    ("The array is contiguous.", "clean"),
    ("The set doesn't have the pop operation.", "clean"),
    ("The list is important.", "clean"),
    ("The stack supports the enqueue operation.", "semantic"),
    ("The array supports the pop operation.", "semantic"),
    ("We dequeue the element from the tree.", "semantic"),
    ("The tree supports the dequeue operation.", "semantic"),
    ("The set supports the rotate operation.", "semantic"),
    ("I push the element onto the graph.", "semantic"),
    ("The heap supports the append operation.", "semantic"),
    ("The graph supports the pop operation.", "semantic"),
    ("The queue supports the push operation.", "semantic"),
    ("The list supports the dequeue operation.", "semantic"),
    ("The array supports the enqueue operation.", "semantic"),
    ("What is a stack?", "question"),
    ("Which data structure has the push operation?", "question"),
)


def template_cohort(seed: int, rooms: int = 16, per_room: int = 3) -> Traffic:
    """16 rooms posting the fixed template set round-robin.

    The seed orders the set; post ``n`` goes to room ``n % rooms``.
    After the first cycle every sentence is one the parser has seen.
    """
    order = list(TEMPLATES)
    random.Random(f"template_cohort:{seed}").shuffle(order)
    members = [(f"cohort-{r}", f"member-{r}-{i}") for r in range(rooms) for i in range(per_room)]

    def stream() -> Iterator[Post]:
        for n in itertools.count():
            room = n % rooms
            user = (n // rooms) % per_room
            text, label = order[n % len(order)]
            yield Post(f"cohort-{room}", f"member-{room}-{user}", text, label)

    return Traffic(members, stream())


WORKLOAD_TRAFFIC = {"classroom": classroom, "template_cohort": template_cohort}


def encode(posts: list[Post]) -> bytes:
    """Canonical bytes of a post sequence (for determinism checks)."""
    return "\n".join(
        json.dumps([p.room, p.user, p.text, p.label]) for p in posts
    ).encode("utf-8")


def self_test(seed: int, count: int = 2000) -> list[str]:
    """Check determinism; returns a list of problems (empty when fine).

    The same seed must give byte-identical traffic, a different seed
    different traffic, and every label must be a known one.
    """
    problems = []
    for name, make in WORKLOAD_TRAFFIC.items():
        first = encode(make(seed).take(count))
        again = encode(make(seed).take(count))
        other = encode(make(seed + 1).take(count))
        if first != again:
            problems.append(f"{name}: seed {seed} gave different traffic on a second pass")
        if first == other:
            problems.append(f"{name}: seeds {seed} and {seed + 1} gave identical traffic")
        labels = {p.label for p in make(seed).take(count)}
        if not labels <= set(LABELS):
            problems.append(f"{name}: unknown labels {sorted(labels - set(LABELS))}")
    return problems


def digest(posts: list[Post]) -> str:
    return hashlib.sha256(encode(posts)).hexdigest()[:16]


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    found = self_test(seed)
    for name, make in WORKLOAD_TRAFFIC.items():
        sample = make(seed).take(2000)
        share = len({p.text for p in sample}) / len(sample)
        print(f"{name}: digest {digest(sample)}, {share:.0%} distinct texts")
    for problem in found:
        print(f"FAIL {problem}")
    sys.exit(1 if found else 0)
