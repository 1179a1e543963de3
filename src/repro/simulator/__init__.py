"""An executable simulator of the abstract GPU (the paper's testbed substitute).

The simulator realises the ATGPU architecture as a machine that actually
runs kernels: warp-lockstep thread blocks, banked shared memory with
bank-conflict detection, block-granular global memory with coalescing, a
block scheduler with the occupancy rule of Expression (2), a cycle-accounting
timing engine with latency hiding and bandwidth limits, a PCIe-like
host↔device transfer engine, and asynchronous streams with dedicated
copy/compute engines for modelling compute/copy overlap.  It produces the
"observed" kernel and total
running times against which the analytical ATGPU/SWGPU predictions are
compared, playing the role of the GTX 650 in the paper's evaluation.
"""

from repro.simulator.config import SIMULATOR_CONFIGS, WORD_BYTES, DeviceConfig
from repro.simulator.device import GPUDevice, LaunchRecord
from repro.simulator.device_pool import DevicePool
from repro.simulator.errors import (
    AllocationError,
    InvalidAccessError,
    LaunchError,
    OutOfGlobalMemoryError,
    OutOfSharedMemoryError,
    SimulatorError,
)
from repro.simulator.functional import FunctionalEngine
from repro.simulator.kernel import BlockContext, KernelProgram
from repro.simulator.memory import (
    DeviceArray,
    GlobalMemory,
    HostMemory,
    SharedMemory,
    bank_conflict_degree,
    coalesced_transactions,
)
from repro.simulator.scheduler import BlockScheduler, SchedulePlan
from repro.simulator.streams import (
    Stream,
    StreamOp,
    StreamOpKind,
    StreamTimeline,
)
from repro.simulator.timing import KernelTiming, TimingEngine
from repro.simulator.trace import (
    BlockTrace,
    EventKind,
    InstructionKind,
    InstructionRecord,
    KernelCounters,
    Timeline,
    TimelineEvent,
)
from repro.simulator.transfer_engine import TransferEngine, TransferRecord

__all__ = [
    "SIMULATOR_CONFIGS",
    "WORD_BYTES",
    "DeviceConfig",
    "GPUDevice",
    "LaunchRecord",
    "DevicePool",
    "AllocationError",
    "InvalidAccessError",
    "LaunchError",
    "OutOfGlobalMemoryError",
    "OutOfSharedMemoryError",
    "SimulatorError",
    "FunctionalEngine",
    "BlockContext",
    "KernelProgram",
    "DeviceArray",
    "GlobalMemory",
    "HostMemory",
    "SharedMemory",
    "bank_conflict_degree",
    "coalesced_transactions",
    "BlockScheduler",
    "SchedulePlan",
    "Stream",
    "StreamOp",
    "StreamOpKind",
    "StreamTimeline",
    "KernelTiming",
    "TimingEngine",
    "BlockTrace",
    "EventKind",
    "InstructionKind",
    "InstructionRecord",
    "KernelCounters",
    "Timeline",
    "TimelineEvent",
    "TransferEngine",
    "TransferRecord",
]
