"""Configuration of the abstract-GPU simulator.

The simulator stands in for the paper's physical testbed (an nVidia GTX 650
attached to an AMD A10-5800K host).  Its configuration therefore describes a
*physical* device — number of streaming multiprocessors, clock, memory
latency and bandwidth, host-link characteristics — rather than the abstract
machine of :mod:`repro.core.machine`.  The two are linked: the simulator's
warp width, shared-memory capacity and global-memory capacity are exactly
the ``b``, ``M`` and ``G`` of the abstract machine it realises.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Callable, Dict, Mapping

from repro.core.machine import ATGPUMachine
from repro.core.metrics import MAX_SIZE
from repro.utils.validation import (
    ensure_non_negative,
    ensure_positive,
    ensure_positive_int,
    reject_unknown_fields,
)

#: Bytes per simulator word (the paper's kernels operate on 4-byte integers).
WORD_BYTES = 4


@dataclass(frozen=True)
class DeviceConfig:
    """Physical characteristics of the simulated GPU and its host link.

    Parameters
    ----------
    num_sms:
        Number of streaming multiprocessors (the ``k'`` of Expression 2).
    warp_width:
        Threads per warp; one thread block of the abstract model is a single
        warp (the paper's model has ``b`` cores per MP executing in lockstep).
    clock_hz:
        Core clock in Hz.
    shared_memory_words:
        Shared-memory words per SM (``M``).
    global_memory_words:
        Global-memory words on the device (``G``).
    max_blocks_per_sm:
        Hardware limit ``H`` on thread blocks resident on one SM.
    issue_cycles:
        Cycles to issue one warp-wide arithmetic/logic instruction.
    shared_latency_cycles:
        Cycles for a bank-conflict-free shared-memory access (≈4 on real HW).
    global_latency_cycles:
        Cycles for one global-memory block transaction (400–800 on real HW).
    global_bandwidth_words_per_cycle:
        Device-memory streaming throughput in words per core cycle; caps the
        aggregate rate of global transactions when many blocks are in flight.
    memory_parallelism:
        Number of outstanding global transactions a single warp can overlap
        (memory-level parallelism); divides the exposed latency per block.
    barrier_cycles:
        Cycles consumed by a block-wide barrier (``__syncthreads``).
    kernel_launch_overhead_s:
        Host-side time to launch one kernel (driver + queueing), in seconds.
    sync_overhead_s:
        Host-side time for the per-round synchronisation tasks the paper
        folds into ``σ`` (device reset, queue clearing, ...), in seconds.
    transfer_latency_s:
        Fixed per-transaction host↔device transfer overhead (the ``α`` the
        simulator realises), in seconds.
    h2d_bandwidth_bytes_per_s / d2h_bandwidth_bytes_per_s:
        Effective pageable host→device / device→host bandwidths.
    pinned_speedup:
        Multiplier applied to both link bandwidths when a transfer uses
        pinned (page-locked) host memory.
    functional_block_limit:
        Largest grid size the device will execute fully functionally; larger
        grids are executed by tracing representative blocks and applying the
        kernel's vectorised fallback for data results.
    """

    num_sms: int = 2
    warp_width: int = 32
    clock_hz: float = 1.058e9
    shared_memory_words: int = 48 * 1024 // WORD_BYTES
    global_memory_words: int = (1 << 30) // WORD_BYTES
    max_blocks_per_sm: int = 16
    issue_cycles: float = 1.0
    shared_latency_cycles: float = 4.0
    global_latency_cycles: float = 600.0
    global_bandwidth_words_per_cycle: float = 6.8
    memory_parallelism: float = 4.0
    barrier_cycles: float = 16.0
    kernel_launch_overhead_s: float = 8.0e-6
    sync_overhead_s: float = 1.2e-5
    transfer_latency_s: float = 1.5e-5
    h2d_bandwidth_bytes_per_s: float = 3.2e9
    d2h_bandwidth_bytes_per_s: float = 3.0e9
    pinned_speedup: float = 1.8
    functional_block_limit: int = 4096

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_sms, "num_sms")
        ensure_positive_int(self.warp_width, "warp_width")
        ensure_positive(self.clock_hz, "clock_hz")
        ensure_positive_int(self.shared_memory_words, "shared_memory_words")
        ensure_positive_int(self.global_memory_words, "global_memory_words")
        ensure_positive_int(self.max_blocks_per_sm, "max_blocks_per_sm")
        ensure_positive(self.issue_cycles, "issue_cycles")
        ensure_non_negative(self.shared_latency_cycles, "shared_latency_cycles")
        ensure_non_negative(self.global_latency_cycles, "global_latency_cycles")
        ensure_positive(
            self.global_bandwidth_words_per_cycle, "global_bandwidth_words_per_cycle"
        )
        ensure_positive(self.memory_parallelism, "memory_parallelism")
        ensure_non_negative(self.barrier_cycles, "barrier_cycles")
        ensure_non_negative(self.kernel_launch_overhead_s, "kernel_launch_overhead_s")
        ensure_non_negative(self.sync_overhead_s, "sync_overhead_s")
        ensure_non_negative(self.transfer_latency_s, "transfer_latency_s")
        ensure_positive(self.h2d_bandwidth_bytes_per_s, "h2d_bandwidth_bytes_per_s")
        ensure_positive(self.d2h_bandwidth_bytes_per_s, "d2h_bandwidth_bytes_per_s")
        ensure_positive(self.pinned_speedup, "pinned_speedup")
        ensure_positive_int(self.functional_block_limit, "functional_block_limit")
        # The config must realise a valid machine (b <= M, b <= G, ...).
        self.abstract_machine()
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type == "int" and value > MAX_SIZE:
                raise ValueError(
                    f"{f.name} must fit in int64 (at most {MAX_SIZE}), "
                    f"got {value}"
                )

    # ------------------------------------------------------------------ #
    # Links to the abstract model
    # ------------------------------------------------------------------ #
    @property
    def words_per_block(self) -> int:
        """Words per global-memory block (equal to the warp width ``b``)."""
        return self.warp_width

    def abstract_machine(self) -> ATGPUMachine:
        """The ``ATGPU(p, b, M, G)`` instance this device realises."""
        return ATGPUMachine(
            p=self.num_sms * self.warp_width,
            b=self.warp_width,
            M=self.shared_memory_words,
            G=self.global_memory_words,
        )

    def with_overrides(self, **kwargs) -> "DeviceConfig":
        """Copy of the configuration with selected fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Serialisation (used by experiment specs and caches)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """All configuration fields as a plain JSON-serialisable dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeviceConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        reject_unknown_fields(
            "DeviceConfig", data, (f.name for f in fields(cls))
        )
        return cls(**dict(data))

    # ------------------------------------------------------------------ #
    # Named configurations
    # ------------------------------------------------------------------ #
    @classmethod
    def gtx650(cls) -> "DeviceConfig":
        """The paper's testbed GPU (default construction)."""
        return cls()

    @classmethod
    def gtx980(cls) -> "DeviceConfig":
        """A 16-SM Maxwell part on a PCIe 3.0 link."""
        return cls(
            num_sms=16,
            clock_hz=1.216e9,
            shared_memory_words=96 * 1024 // WORD_BYTES,
            global_memory_words=(4 << 30) // WORD_BYTES,
            max_blocks_per_sm=32,
            global_latency_cycles=400.0,
            global_bandwidth_words_per_cycle=46.0,
            memory_parallelism=6.0,
            transfer_latency_s=1.0e-5,
            h2d_bandwidth_bytes_per_s=11.0e9,
            d2h_bandwidth_bytes_per_s=10.5e9,
        )

    @classmethod
    def tesla_k40(cls) -> "DeviceConfig":
        """A 15-SM Kepler datacentre part on a PCIe 3.0 link."""
        return cls(
            num_sms=15,
            clock_hz=0.745e9,
            shared_memory_words=48 * 1024 // WORD_BYTES,
            global_memory_words=(12 << 30) // WORD_BYTES,
            max_blocks_per_sm=16,
            global_latency_cycles=500.0,
            global_bandwidth_words_per_cycle=96.0,
            memory_parallelism=6.0,
            transfer_latency_s=1.1e-5,
            h2d_bandwidth_bytes_per_s=10.0e9,
            d2h_bandwidth_bytes_per_s=9.5e9,
        )

    @classmethod
    def tiny_test_device(cls) -> "DeviceConfig":
        """A small device used by the test suite (fully functional execution)."""
        return cls(
            num_sms=2,
            warp_width=4,
            clock_hz=1.0e6,
            shared_memory_words=256,
            global_memory_words=4096,
            max_blocks_per_sm=4,
            global_latency_cycles=20.0,
            global_bandwidth_words_per_cycle=2.0,
            memory_parallelism=2.0,
            kernel_launch_overhead_s=1.0e-6,
            sync_overhead_s=1.0e-6,
            transfer_latency_s=2.0e-6,
            h2d_bandwidth_bytes_per_s=1.0e8,
            d2h_bandwidth_bytes_per_s=1.0e8,
            functional_block_limit=1 << 16,
        )


#: The simulator configuration of each built-in cost-model preset that has
#: one, by preset name.  It is static, so a spawned worker resolves a spec's
#: configuration without any registry that grows at run time.
SIMULATOR_CONFIGS: Mapping[str, Callable[[], DeviceConfig]] = {
    "gtx650": DeviceConfig.gtx650,
    "gtx980": DeviceConfig.gtx980,
    "k40": DeviceConfig.tesla_k40,
}
