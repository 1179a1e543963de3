"""Machine, occupancy and cost-parameter presets.

The paper's experiments run on an nVidia GTX 650 (Kepler GK107: 2 streaming
multiprocessors, 1 GB of GDDR5, ~1058 MHz core clock) attached over PCIe to
an AMD A10-5800K host.  The default presets below model that configuration;
additional presets for other GPUs support the paper's stated future work of
"verifying the model using other GPUs".

All cost parameters are expressed in **seconds** so that predicted costs and
simulated observed times live on comparable scales:

* ``gamma``  -- core clock in cycles per second,
* ``lam``    -- cycles charged per global-memory block access,
* ``sigma``  -- seconds per round of synchronisation / kernel launch,
* ``alpha``  -- seconds of fixed overhead per host↔device transaction,
* ``beta``   -- seconds per 4-byte word of host↔device transfer.

A note on ``lam``.  The paper motivates ``λ`` with the *latency* of a global
memory access (400--800 cycles), but its cost function charges ``λ`` for
**every** block transaction of **every** thread block serially
(``λ·q_i/γ``), with no latency hiding.  Plugging a raw latency in therefore
over-charges large kernels by orders of magnitude and makes the transfer
terms invisible — which contradicts the magnitudes the paper actually plots
(its ATGPU cost for vector addition is clearly transfer-dominated).  The
presets therefore use the *bandwidth-amortised* cost of serving one
``b``-word block from device memory (``b·word_bytes / memory_bandwidth``
expressed in core cycles, ≈5 cycles for the GTX 650), which reproduces the
paper's predicted-cost behaviour.  ``repro.core.calibration`` can re-fit
``λ`` (and the other parameters) from observed timings, and
``tests/test_cost.py``'s preset ablations check that a raw 800-cycle
latency hides the transfer terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.cost import CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.occupancy import OccupancyModel

#: Words (4-byte) in one gigabyte.
_WORDS_PER_GIB = (1 << 30) // 4


@dataclass(frozen=True)
class GPUPreset:
    """A named GPU configuration bundling machine, occupancy and cost data."""

    name: str
    machine: ATGPUMachine
    occupancy: OccupancyModel
    parameters: CostParameters
    description: str = ""


def _make_preset(
    name: str,
    physical_mps: int,
    warp_width: int,
    shared_memory_words: int,
    global_memory_words: int,
    hardware_block_limit: int,
    clock_hz: float,
    global_latency_cycles: float,
    sync_seconds: float,
    transfer_alpha_seconds: float,
    transfer_beta_seconds_per_word: float,
    description: str,
) -> GPUPreset:
    machine = ATGPUMachine(
        p=physical_mps * warp_width,
        b=warp_width,
        M=shared_memory_words,
        G=global_memory_words,
    )
    occupancy = OccupancyModel(
        physical_mps=physical_mps, hardware_block_limit=hardware_block_limit
    )
    parameters = CostParameters(
        gamma=clock_hz,
        lam=global_latency_cycles,
        sigma=sync_seconds,
        alpha=transfer_alpha_seconds,
        beta=transfer_beta_seconds_per_word,
    )
    return GPUPreset(
        name=name,
        machine=machine,
        occupancy=occupancy,
        parameters=parameters,
        description=description,
    )


#: The paper's experimental GPU: nVidia GTX 650 (Kepler GK107).
GTX_650 = _make_preset(
    name="gtx650",
    physical_mps=2,
    warp_width=32,
    shared_memory_words=48 * 1024 // 4,
    global_memory_words=_WORDS_PER_GIB,
    hardware_block_limit=16,
    clock_hz=1.058e9,
    global_latency_cycles=4.7,
    sync_seconds=2.0e-5,
    transfer_alpha_seconds=1.5e-5,
    transfer_beta_seconds_per_word=1.25e-9,
    description=(
        "nVidia GTX 650 (2 SMs, 1 GB GDDR5, 1058 MHz) over PCIe 2.0-class "
        "pageable transfers -- the paper's testbed"
    ),
)

#: A mid-range Maxwell part, for the "other GPUs" future-work experiments.
GTX_980 = _make_preset(
    name="gtx980",
    physical_mps=16,
    warp_width=32,
    shared_memory_words=96 * 1024 // 4,
    global_memory_words=4 * _WORDS_PER_GIB,
    hardware_block_limit=32,
    clock_hz=1.216e9,
    global_latency_cycles=0.7,
    sync_seconds=1.0e-5,
    transfer_alpha_seconds=1.0e-5,
    transfer_beta_seconds_per_word=3.5e-10,
    description="nVidia GTX 980 (16 SMs, 4 GB, PCIe 3.0 pageable transfers)",
)

#: A datacentre Kepler part with a large frame buffer.
TESLA_K40 = _make_preset(
    name="k40",
    physical_mps=15,
    warp_width=32,
    shared_memory_words=48 * 1024 // 4,
    global_memory_words=12 * _WORDS_PER_GIB,
    hardware_block_limit=16,
    clock_hz=0.745e9,
    global_latency_cycles=0.35,
    sync_seconds=1.2e-5,
    transfer_alpha_seconds=1.1e-5,
    transfer_beta_seconds_per_word=4.0e-10,
    description="nVidia Tesla K40 (15 SMs, 12 GB, PCIe 3.0)",
)

#: A Pascal consumer flagship.
GTX_1080 = _make_preset(
    name="gtx1080",
    physical_mps=20,
    warp_width=32,
    shared_memory_words=96 * 1024 // 4,
    global_memory_words=8 * _WORDS_PER_GIB,
    hardware_block_limit=32,
    clock_hz=1.607e9,
    global_latency_cycles=0.6,
    sync_seconds=0.8e-5,
    transfer_alpha_seconds=0.9e-5,
    transfer_beta_seconds_per_word=3.3e-10,
    description="nVidia GTX 1080 (20 SMs, 8 GB, PCIe 3.0)",
)

#: Registry of presets keyed by name.
PRESETS: Dict[str, GPUPreset] = {
    preset.name: preset
    for preset in (GTX_650, GTX_980, TESLA_K40, GTX_1080)
}

#: The preset used by default throughout the reproduction (the paper's GPU).
DEFAULT_PRESET = GTX_650


def register_preset(preset: GPUPreset, overwrite: bool = False) -> GPUPreset:
    """Register a preset so specs and sessions can refer to it by name.

    The registry key is the lowercased name, matching :func:`get_preset`'s
    case-insensitive lookup.  Re-registering an identical preset is a no-op;
    registering a *different* preset under an existing name raises
    :class:`ValueError` unless ``overwrite=True``.
    """
    key = preset.name.lower()
    existing = PRESETS.get(key)
    if existing is not None and existing != preset and not overwrite:
        raise ValueError(
            f"a different GPU preset is already registered as {preset.name!r}; "
            "rename the preset or pass overwrite=True"
        )
    PRESETS[key] = preset
    return preset


def get_preset(name: str) -> GPUPreset:
    """Look up a preset by name; raises :class:`KeyError` with suggestions."""
    key = name.lower()
    if key not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown GPU preset {name!r}; known presets: {known}")
    return PRESETS[key]


def preset_names() -> Tuple[str, ...]:
    """Names of all registered presets."""
    return tuple(sorted(PRESETS))
