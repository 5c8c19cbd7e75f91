"""Shard-local state ownership: the partition-and-merge layer.

The supervision runtime scales by giving every worker a private replica
of each mutable store (learner corpus, user profiles, FAQ database) and
merging the replicas back at drain barriers — the same shape PR 2 gave
``SupervisionStats``.  This package defines the contract those stores
implement; see :mod:`repro.state.mergeable`.
"""

from .mergeable import MergeableStore, StoreReplica, snapshots_equal

__all__ = [
    "MergeableStore",
    "StoreReplica",
    "snapshots_equal",
]
