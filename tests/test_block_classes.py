"""Block-class faithfulness of the index-only algorithms.

Expression 2 prices a round's blocks as waves of one block's time, so it
assumes a uniform grid.  The simulator makes the same assumption in two
places: sampled launches weight one traced block per class
(``KernelProgram.representative_blocks``), and the batched probe traces
each class once even where the scalar device executes every block, adding
the class's values once per block in block order
(``TimingEngine.launch_totals``).  Both are exact only while every block's
trace aggregates equal those of its class representative.  Every algorithm that sets
``sim_trace_data_dependent = False`` promises that, and lint ``SIM001``
requires this property for each of them.

For each algorithm, on gtx650 and on the tiny test device, a generated size
runs the algorithm's host program on a :class:`GPUDevice`.  Every launch
the device executes in full is checked block by block against its classes,
and the probe's timing of the same run must equal the device's bit for
bit.  Generated sizes are 1, primes, 2^k±1 and warp-width multiples
with their neighbours; on the tiny device they stay within its 4,096 words
of global memory, far below its block limit.  On gtx650 a fixed pair of
sizes per algorithm straddles the functional block limit.  The examples
are derandomized, so tier-1 runs the same small profile every time.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import all_algorithm_names, create
from repro.simulator.batch import simulate_sweep
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice
from repro.simulator.functional import FunctionalEngine

#: The algorithms whose traces depend on indices only.
INDEX_ONLY = (
    "vector_addition",
    "reduction",
    "matrix_multiplication",
    "prefix_sum",
    "stencil_1d",
)

CONFIGS = {
    "gtx650": DeviceConfig.gtx650(),
    "tiny_test_device": DeviceConfig.tiny_test_device(),
}

#: Largest generated size per algorithm and device.  On the tiny device it
#: is the largest ``n`` whose arrays fit 4,096 words.  On gtx650 it keeps
#: the generated sizes cheap (``LIMIT_SIZES`` covers the functional block
#: limit), and matrix multiplication stops past its own 16-tile limit.
TOP = {
    ("vector_addition", "tiny_test_device"): 1_365,
    ("reduction", "tiny_test_device"): 3_276,
    ("matrix_multiplication", "tiny_test_device"): 36,
    ("prefix_sum", "tiny_test_device"): 1_535,
    ("stencil_1d", "tiny_test_device"): 2_048,
    ("vector_addition", "gtx650"): 4_100,
    ("reduction", "gtx650"): 4_100,
    ("matrix_multiplication", "gtx650"): 160,
    ("prefix_sum", "gtx650"): 4_100,
    ("stencil_1d", "gtx650"): 4_100,
}

PRIMES = (2, 3, 5, 7, 13, 31, 61, 127, 251, 509, 1_021, 2_039, 3_271, 4_093)

#: Per algorithm, the largest size whose launches gtx650 all executes block
#: by block, and the next size, whose largest launch is sampled: 4,096
#: blocks of 32 lanes, and matrix multiplication's own 16-tile limit.
LIMIT_SIZES = {
    "vector_addition": (131_072, 131_073),
    "reduction": (131_072, 131_073),
    "matrix_multiplication": (128, 160),
    "prefix_sum": (131_072, 131_073),
    "stencil_1d": (131_072, 131_073),
}

PROFILE = settings(derandomize=True, max_examples=10, deadline=None)


def sizes(name: str, device: str):
    """Awkward sizes of ``name`` that fit ``device`` (see the docstring)."""
    config = CONFIGS[device]
    b = config.warp_width
    top = TOP[(name, device)]
    if name == "matrix_multiplication":
        # Sides are either below the warp width or a multiple of it.
        return st.one_of(
            st.integers(1, b - 1),
            st.integers(1, top // b).map(lambda m: m * b),
        )
    return st.one_of([
        strategy.filter(lambda n: n <= top)
        for strategy in (
            st.just(1),
            st.sampled_from(PRIMES),
            st.integers(1, top.bit_length()).flatmap(
                lambda k: st.sampled_from([(1 << k) - 1, (1 << k) + 1])
            ),
            st.integers(1, top // b).flatmap(
                lambda m: st.sampled_from([m * b - 1, m * b, m * b + 1])
            ),
        )
    ])


def aggregate(trace) -> tuple:
    """What the timing engine reads from one block's trace."""
    return (
        trace.compute_operations,
        trace.shared_accesses,
        trace.shared_conflict_cycles_factor,
        trace.global_transactions,
        trace.global_words,
        trace.barriers,
        trace.has_bank_conflicts,
        trace.shared_words_used,
    )


class _RecordingEngine(FunctionalEngine):
    """Keeps every block's trace of each launch executed in full."""

    def __init__(self, config, global_memory):
        super().__init__(config, global_memory)
        self.launches = []

    def execute_all(self, kernel):
        traces = super().execute_all(kernel)
        self.launches.append((kernel, traces))
        return traces


def observed_run(algorithm, n: int, config: DeviceConfig) -> GPUDevice:
    """``observe(n)``'s run, keeping the traces of its functional launches."""
    device = GPUDevice(config)
    device.functional_engine = _RecordingEngine(config, device.global_memory)
    algorithm.run(device, algorithm.generate_input(n, seed=0))
    return device


def unfaithful_blocks(device: GPUDevice) -> list:
    """``(kernel, block)`` of every block that differs from its class."""
    found = []
    for kernel, traces in device.functional_engine.launches:
        first = 0
        for representative, multiplicity in kernel.representative_blocks():
            # A class is the next run of blocks and holds its representative.
            assert first <= representative < first + multiplicity
            expected = aggregate(traces[representative])
            found.extend(
                (kernel.name, block)
                for block in range(first, first + multiplicity)
                if aggregate(traces[block]) != expected
            )
            first += multiplicity
        assert first == len(traces)
    return found


def assert_faithful(name: str, n: int, config: DeviceConfig) -> None:
    algorithm = create(name)
    run = observed_run(algorithm, n, config)
    assert unfaithful_blocks(run) == []
    # The probe times the same run from the classes alone.
    probed = simulate_sweep(algorithm, [n], config=config)
    assert probed.total_times == [run.total_time_s]
    assert probed.kernel_times == [run.kernel_time_s]


def test_covers_every_index_only_algorithm():
    assert set(INDEX_ONLY) == {
        name for name in all_algorithm_names()
        if not create(name).sim_trace_data_dependent
    }
    assert set(LIMIT_SIZES) == set(INDEX_ONLY)


@pytest.mark.parametrize("device", sorted(CONFIGS))
@pytest.mark.parametrize("name", INDEX_ONLY)
@PROFILE
@given(data=st.data())
def test_every_block_is_faithful_to_its_class(name, device, data):
    n = data.draw(sizes(name, device), label="n")
    assert_faithful(name, n, CONFIGS[device])


@pytest.mark.parametrize("edge", [0, 1])
@pytest.mark.parametrize("name", INDEX_ONLY)
def test_faithful_at_the_functional_block_limit(name, edge):
    """gtx650's largest launch run block by block, and its first sampled one."""
    assert_faithful(name, LIMIT_SIZES[name][edge], CONFIGS["gtx650"])
