"""Property tests for the homogeneous fleet's paper invariants.

``Topology.homogeneous(P, c)`` is the fleet every ``(devices, contention)``
argument names.  Over generated algorithms, presets, sizes (1, primes,
2^k±1 and sweep points), device counts ``P`` in 1..64 and contentions ``c``
in [0, 1], its GPU-cost must

* not increase as devices are added,
* not decrease as the host link gets more contended,
* equal Expression (2) (the ``atgpu`` cost) on one device, and
* charge every round the serial Boyer transfer on a fully shared link.

All four are exact comparisons.  The examples are derandomized, so tier-1
runs the same small profile every time.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import all_algorithm_names, create
from repro.core.cost import ATGPUCostModel
from repro.core.presets import get_preset, preset_names
from repro.core.sharding import TopologyCostModel
from repro.core.topology import Topology
from repro.core.transfer import BoyerTransferModel

ALGORITHMS = {name: create(name) for name in all_algorithm_names()}

#: Primes and ``2^k ± 1`` sizes, kept when they fit an algorithm's sweep.
AWKWARD_SIZES = frozenset(
    {1, 2, 3, 5, 7, 13, 31, 61, 127, 8191, 131071, 524287}
    | {(1 << k) + d for k in range(1, 27) for d in (-1, 1)}
)


def _sizes(algorithm):
    sweep = algorithm.default_sizes()
    top = max(sweep)
    return sorted({n for n in AWKWARD_SIZES if n <= top} | set(sweep))


SIZES = {name: _sizes(algorithm) for name, algorithm in ALGORITHMS.items()}
#: The built-in presets, fixed at import so presets other tests register
#: do not change the generated examples.
PRESETS = preset_names()

DEVICES = st.integers(min_value=1, max_value=64)
CONTENTIONS = st.floats(min_value=0.0, max_value=1.0)
PROFILE = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def cases(draw):
    """``(algorithm, preset, metrics)`` at a generated size."""
    name = draw(st.sampled_from(sorted(ALGORITHMS)))
    preset = get_preset(draw(st.sampled_from(PRESETS)))
    n = draw(st.sampled_from(SIZES[name]))
    return name, preset, ALGORITHMS[name].metrics(n, preset.machine)


def fleet_model(preset, devices, contention) -> TopologyCostModel:
    return TopologyCostModel(
        preset.machine, preset.parameters, preset.occupancy,
        Topology.homogeneous(devices, contention),
    )


@PROFILE
@given(
    case=cases(),
    devices=st.lists(DEVICES, min_size=2, max_size=4, unique=True),
    contention=CONTENTIONS,
)
def test_cost_non_increasing_in_devices(case, devices, contention):
    _, preset, metrics = case
    costs = [
        fleet_model(preset, p, contention).gpu_cost(metrics)
        for p in sorted(devices)
    ]
    assert all(a >= b for a, b in zip(costs, costs[1:])), costs


@PROFILE
@given(
    case=cases(),
    devices=DEVICES,
    contentions=st.lists(CONTENTIONS, min_size=2, max_size=4, unique=True),
)
def test_cost_non_decreasing_in_contention(case, devices, contentions):
    _, preset, metrics = case
    costs = [
        fleet_model(preset, devices, c).gpu_cost(metrics)
        for c in sorted(contentions)
    ]
    assert all(a <= b for a, b in zip(costs, costs[1:])), costs


@PROFILE
@given(case=cases(), contention=CONTENTIONS)
def test_single_device_is_atgpu(case, contention):
    _, preset, metrics = case
    serial = ATGPUCostModel(
        preset.machine, preset.parameters, preset.occupancy
    ).gpu_cost(metrics)
    assert fleet_model(preset, 1, contention).gpu_cost(metrics) == serial


@PROFILE
@given(case=cases(), devices=DEVICES)
def test_full_contention_transfer_is_serial_boyer(case, devices):
    _, preset, metrics = case
    boyer = BoyerTransferModel(
        alpha=preset.parameters.alpha, beta=preset.parameters.beta
    )
    model = fleet_model(preset, devices, 1.0)
    for round_metrics in metrics:
        breakdown = model.round_breakdown(round_metrics)
        assert breakdown.inward_transfer == boyer.inward_cost(round_metrics)
        assert breakdown.outward_transfer == boyer.outward_cost(round_metrics)
