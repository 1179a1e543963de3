"""Thread-block scheduling onto the simulated streaming multiprocessors.

The scheduler decides how many blocks of a kernel are resident per SM
(occupancy) and therefore how many *waves* of blocks the launch requires.
It uses exactly the same arithmetic as the GPU-cost function of the abstract
model (Expression 2) — ``ℓ = min(⌊M/m⌋, H)`` and ``⌈k / (k'·ℓ)⌉`` — so that
tests can verify the simulator and the cost model agree on occupancy even
though their *timing* models differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.occupancy import blocks_per_multiprocessor, wave_count
from repro.simulator.config import DeviceConfig
from repro.utils.validation import ensure_non_negative, ensure_positive_int


@dataclass(frozen=True)
class SchedulePlan:
    """Resident-block and wave structure of one kernel launch."""

    num_blocks: int
    blocks_per_sm: int
    num_sms: int
    waves: int
    shared_words_per_block: int

    @property
    def concurrent_blocks(self) -> int:
        """Blocks in flight device-wide during a full wave."""
        return self.blocks_per_sm * self.num_sms

    @property
    def blocks_in_last_wave(self) -> int:
        """Blocks executed by the final (possibly ragged) wave."""
        remainder = self.num_blocks - (self.waves - 1) * self.concurrent_blocks
        return remainder

    @property
    def occupancy(self) -> float:
        """Average fraction of block slots occupied across all waves."""
        return self.num_blocks / (self.waves * self.concurrent_blocks)


class BlockScheduler:
    """Maps kernel launches to :class:`SchedulePlan` objects."""

    def __init__(self, config: DeviceConfig) -> None:
        self.config = config

    def plan(self, num_blocks: int, shared_words_per_block: int) -> SchedulePlan:
        """Compute the schedule of a launch of ``num_blocks`` blocks.

        ``shared_words_per_block`` limits residency exactly as in
        Expression (2): an SM hosts ``min(⌊M/m⌋, H)`` blocks.
        """
        ensure_positive_int(num_blocks, "num_blocks")
        ensure_non_negative(shared_words_per_block, "shared_words_per_block")
        blocks_per_sm = blocks_per_multiprocessor(
            shared_memory_capacity=self.config.shared_memory_words,
            shared_words_per_block=float(shared_words_per_block),
            hardware_block_limit=self.config.max_blocks_per_sm,
        )
        waves = wave_count(
            thread_blocks=num_blocks,
            physical_mps=self.config.num_sms,
            blocks_per_mp=blocks_per_sm,
        )
        return SchedulePlan(
            num_blocks=num_blocks,
            blocks_per_sm=blocks_per_sm,
            num_sms=self.config.num_sms,
            waves=waves,
            shared_words_per_block=int(shared_words_per_block),
        )

    def max_resident_blocks(self, shared_words_per_block: int) -> int:
        """Device-wide block residency for a given shared-memory footprint."""
        ensure_non_negative(shared_words_per_block, "shared_words_per_block")
        return self.config.num_sms * blocks_per_multiprocessor(
            shared_memory_capacity=self.config.shared_memory_words,
            shared_words_per_block=float(shared_words_per_block),
            hardware_block_limit=self.config.max_blocks_per_sm,
        )
