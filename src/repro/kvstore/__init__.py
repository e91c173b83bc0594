"""MRP-Store: a partitioned, replicated, sequentially consistent key-value store."""

from .client import MRPStoreCommands, kv_request_factory
from .partitioning import HashPartitioner, Partitioner
from .replica import MRPStoreReplica
from .service import MRPStoreService
from .store import KeyValueStore, StoredValue

__all__ = [
    "MRPStoreCommands",
    "kv_request_factory",
    "HashPartitioner",
    "Partitioner",
    "MRPStoreReplica",
    "MRPStoreService",
    "KeyValueStore",
    "StoredValue",
]
