"""Cycle-accurate flit-level network simulator (Section 3.2's
methodology)."""

from .allocators import Allocator, GreedyAllocator, SequentialAllocator, make_allocator
from .batch import BatchBackend, BatchRunResult
from .config import SimulationConfig, derive_seed, replica_seeds
from .injection import BatchInjection, BernoulliInjection, InjectionProcess
from .packet import Flit, Packet
from .simulator import KERNELS, Simulator, resolve_kernel
from .stats import (
    BatchResult,
    ClassStats,
    KernelStats,
    LatencySummary,
    OpenLoopResult,
)
from .trace import (
    ChannelLoadTrace,
    PacketJourneyTrace,
    QueueTrace,
    ThroughputTrace,
    Tracer,
)
from .workload import (
    Message,
    RequestReply,
    SyntheticWorkload,
    UnsupportedWorkloadError,
    Workload,
    WorkloadSpec,
    register_workload,
    registered_workloads,
)

__all__ = [
    "Allocator",
    "GreedyAllocator",
    "SequentialAllocator",
    "make_allocator",
    "SimulationConfig",
    "derive_seed",
    "replica_seeds",
    "BatchBackend",
    "BatchRunResult",
    "BatchInjection",
    "BernoulliInjection",
    "InjectionProcess",
    "Flit",
    "Packet",
    "Simulator",
    "KERNELS",
    "resolve_kernel",
    "BatchResult",
    "ClassStats",
    "KernelStats",
    "LatencySummary",
    "OpenLoopResult",
    "ChannelLoadTrace",
    "PacketJourneyTrace",
    "QueueTrace",
    "ThroughputTrace",
    "Tracer",
    "Message",
    "RequestReply",
    "SyntheticWorkload",
    "UnsupportedWorkloadError",
    "Workload",
    "WorkloadSpec",
    "register_workload",
    "registered_workloads",
]
