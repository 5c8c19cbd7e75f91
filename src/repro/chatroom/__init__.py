"""Augmentative chat room substrate: deterministic rooms + supervision."""

from .clock import SimulatedClock
from .events import (
    AgentIntervened,
    Event,
    EventBus,
    MessageDelivered,
    UserJoined,
    UserLeft,
)
from .messages import ChatMessage, MessageKind, Participant, Role
from .room import ChatRoom, ChatRoomError
from .runtime import (
    DrainBudget,
    MULTI_WORKER_MODES,
    RUNTIME_MODES,
    SupervisionRuntime,
)
from .server import ChatServer
from .shard import ShardQueue, SupervisionItem, SupervisionWorker, shard_of
from .supervisor import (
    QA_AGENT_NAME,
    ShardStores,
    SupervisionPipeline,
    SupervisionPolicy,
    SupervisionStats,
)

__all__ = [
    "AgentIntervened",
    "ChatMessage",
    "ChatRoom",
    "ChatRoomError",
    "ChatServer",
    "DrainBudget",
    "Event",
    "EventBus",
    "MessageDelivered",
    "MessageKind",
    "MULTI_WORKER_MODES",
    "Participant",
    "QA_AGENT_NAME",
    "Role",
    "RUNTIME_MODES",
    "ShardQueue",
    "ShardStores",
    "SimulatedClock",
    "SupervisionItem",
    "SupervisionPipeline",
    "SupervisionPolicy",
    "SupervisionRuntime",
    "SupervisionStats",
    "SupervisionWorker",
    "UserJoined",
    "UserLeft",
    "shard_of",
]
