"""The User Profile Database (Figure 3).

Tracks each learner's activity so the QA system can analyse "the Corpus
and user profile to collect frequent questions" and instructors can see
who is falling behind the discussing courses (section 1's supervision
questions: do learners understand the context / the indicated issues?).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(slots=True)
class UserProfile:
    """One learner's running profile.

    Attributes:
        name: the learner's handle.
        role: "student", "teacher" or "agent".
        messages: total supervised utterances.
        syntax_errors / semantic_errors / questions: running tallies.
        mistake_counts: error-kind histogram.
        topic_counts: ontology-topic histogram (what they talk about).
        joined_at / last_active: simulated-clock timestamps.
    """

    name: str
    role: str = "student"
    messages: int = 0
    syntax_errors: int = 0
    semantic_errors: int = 0
    questions: int = 0
    mistake_counts: Counter = field(default_factory=Counter)
    topic_counts: Counter = field(default_factory=Counter)
    joined_at: float = 0.0
    last_active: float = 0.0

    @property
    def error_rate(self) -> float:
        """Errors per supervised message."""
        if self.messages == 0:
            return 0.0
        return (self.syntax_errors + self.semantic_errors) / self.messages

    def favourite_topics(self, limit: int = 3) -> list[str]:
        return [topic for topic, _count in self.topic_counts.most_common(limit)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "role": self.role,
            "messages": self.messages,
            "syntax_errors": self.syntax_errors,
            "semantic_errors": self.semantic_errors,
            "questions": self.questions,
            "mistake_counts": dict(self.mistake_counts),
            "topic_counts": dict(self.topic_counts),
            "joined_at": self.joined_at,
            "last_active": self.last_active,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UserProfile":
        profile = cls(
            name=data["name"],
            role=data.get("role", "student"),
            messages=data.get("messages", 0),
            syntax_errors=data.get("syntax_errors", 0),
            semantic_errors=data.get("semantic_errors", 0),
            questions=data.get("questions", 0),
            joined_at=data.get("joined_at", 0.0),
            last_active=data.get("last_active", 0.0),
        )
        profile.mistake_counts.update(data.get("mistake_counts", {}))
        profile.topic_counts.update(data.get("topic_counts", {}))
        return profile


def _apply_activity(
    profile: UserProfile,
    now: float,
    *,
    syntax_error: bool,
    semantic_error: bool,
    question: bool,
    mistake_kinds: tuple[str, ...],
    topics: tuple[str, ...],
) -> None:
    """Bump one utterance's tallies on a profile (or a replica's delta —
    the single place the per-event field list lives; ``merge`` sums the
    same fields as whole deltas).  ``last_active`` is a max, not an
    assignment: a deferred or redriven utterance commits after newer
    traffic, and its (older) timestamp must not roll the profile back."""
    profile.messages += 1
    profile.last_active = max(profile.last_active, now)
    if syntax_error:
        profile.syntax_errors += 1
    if semantic_error:
        profile.semantic_errors += 1
    if question:
        profile.questions += 1
    profile.mistake_counts.update(mistake_kinds)
    profile.topic_counts.update(topics)


class UserProfileStore:
    """All user profiles, keyed by name."""

    def __init__(self) -> None:
        self._profiles: dict[str, UserProfile] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, name: str) -> bool:
        return name in self._profiles

    def get_or_create(self, name: str, role: str = "student", now: float = 0.0) -> UserProfile:
        profile = self._profiles.get(name)
        if profile is None:
            profile = UserProfile(name=name, role=role, joined_at=now, last_active=now)
            self._profiles[name] = profile
        return profile

    def get(self, name: str) -> UserProfile | None:
        return self._profiles.get(name)

    def all(self) -> list[UserProfile]:
        return [self._profiles[name] for name in sorted(self._profiles)]

    def record_activity(
        self,
        name: str,
        now: float,
        *,
        syntax_error: bool = False,
        semantic_error: bool = False,
        question: bool = False,
        mistake_kinds: tuple[str, ...] = (),
        topics: tuple[str, ...] = (),
    ) -> UserProfile:
        """Fold one supervised utterance into the user's profile."""
        profile = self.get_or_create(name, now=now)
        if now < profile.joined_at:
            # An out-of-order commit (quarantine redrive) can carry the
            # user's true first activity; joined_at folds as a min.
            profile.joined_at = now
        _apply_activity(
            profile,
            now,
            syntax_error=syntax_error,
            semantic_error=semantic_error,
            question=question,
            mistake_kinds=mistake_kinds,
            topics=topics,
        )
        return profile

    # -------------------------------------------------- partition and merge

    def fork(self) -> "ProfileReplica":
        """A shard replica: activity recorded on it stays local until
        :meth:`merge` folds it back in."""
        return ProfileReplica(self)

    def merge(self, replica: "ProfileReplica") -> int:
        """Fold one replica's per-user activity deltas into the store.

        Profile state is built from commutative pieces — tallies and
        histograms sum, ``last_active`` is a max, ``joined_at`` a min —
        so merging replicas in any order yields the same store, equal to
        one store that saw every activity itself.

        Returns the number of user deltas merged.
        """
        for name, delta in replica.pending.items():
            profile = self._profiles.get(name)
            if profile is None:
                self._profiles[name] = delta
                continue
            profile.messages += delta.messages
            profile.syntax_errors += delta.syntax_errors
            profile.semantic_errors += delta.semantic_errors
            profile.questions += delta.questions
            profile.mistake_counts.update(delta.mistake_counts)
            profile.topic_counts.update(delta.topic_counts)
            profile.joined_at = min(profile.joined_at, delta.joined_at)
            profile.last_active = max(profile.last_active, delta.last_active)
        return len(replica.pending)

    def snapshot(self) -> tuple[dict, ...]:
        """Canonical comparable value: every profile, ordered by name."""
        return tuple(profile.to_dict() for profile in self.all())

    def restore(self, profiles: list[dict]) -> None:
        """Replace the store's contents from ``to_dict`` rows (snapshot
        recovery) — in place, so consumers keep their reference."""
        self._profiles = {}
        for data in profiles:
            profile = UserProfile.from_dict(data)
            self._profiles[profile.name] = profile

    # --------------------------------------------------------- persistence

    def save(self, path: str | Path) -> None:
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for profile in self.all():
                handle.write(json.dumps(profile.to_dict(), ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "UserProfileStore":
        store = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    profile = UserProfile.from_dict(json.loads(line))
                    store._profiles[profile.name] = profile
        return store


class ProfileReplica:
    """One worker's shard-local view of a :class:`UserProfileStore`.

    ``record_activity`` accumulates into private per-user *delta*
    profiles (created with ``joined_at`` = first local activity, exactly
    what a fresh profile would get); reads delegate to the base store's
    fork-point snapshot.  Single-owner, like every shard replica: one
    worker writes, the barrier merges.
    """

    __slots__ = ("_base", "base_len", "_pending")

    def __init__(self, base: UserProfileStore) -> None:
        self._base = base
        self.base_len = len(base)
        self._pending: dict[str, UserProfile] = {}

    @property
    def base(self) -> UserProfileStore:
        return self._base

    @property
    def pending(self) -> dict[str, UserProfile]:
        """Buffered per-user deltas, keyed by user name."""
        return self._pending

    def begin_origin(self, seq: int) -> None:
        """Profiles merge commutatively; the origin is irrelevant."""

    def rebase(self) -> None:
        self._pending = {}
        self.base_len = len(self._base)

    def __len__(self) -> int:
        return self.base_len + sum(
            1 for name in self._pending if name not in self._base
        )

    def __contains__(self, name: str) -> bool:
        return name in self._pending or name in self._base

    def record_activity(
        self,
        name: str,
        now: float,
        *,
        syntax_error: bool = False,
        semantic_error: bool = False,
        question: bool = False,
        mistake_kinds: tuple[str, ...] = (),
        topics: tuple[str, ...] = (),
    ) -> UserProfile:
        """Fold one supervised utterance into the user's *local* delta."""
        delta = self._pending.get(name)
        if delta is None:
            delta = UserProfile(name=name, joined_at=now, last_active=now)
            self._pending[name] = delta
        _apply_activity(
            delta,
            now,
            syntax_error=syntax_error,
            semantic_error=semantic_error,
            question=question,
            mistake_kinds=mistake_kinds,
            topics=topics,
        )
        return delta

    def __getattr__(self, name: str):
        # Reads (get, all, ...) see the fork-point snapshot.  The
        # explicit lookup keeps a probe that arrives before _base is set
        # from recursing through delegation.
        try:
            base = object.__getattribute__(self, "_base")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(base, name)
