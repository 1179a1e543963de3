"""Shared fixtures for the ATGPU reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.cost import CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.occupancy import OccupancyModel
from repro.core.presets import GTX_650, PRESETS
from repro.simulator.config import DeviceConfig
from repro.simulator.device import GPUDevice


@pytest.fixture(autouse=True)
def presets_left_unchanged():
    """Fails a test that leaves the preset registry changed.

    A preset one test registers is seen by every later test, so a test
    that iterates ``preset_names()`` would depend on test order.  Register
    a preset for one test with ``monkeypatch.setitem(PRESETS, ...)``.
    """
    before = dict(PRESETS)
    yield
    changed = sorted(
        name for name in set(PRESETS) | set(before)
        if PRESETS.get(name) != before.get(name)
    )
    if changed:
        pytest.fail(f"the test left presets {changed} registered or changed")


@pytest.fixture
def machine() -> ATGPUMachine:
    """A small abstract machine used throughout the unit tests."""
    return ATGPUMachine(p=64, b=32, M=12288, G=1 << 22)


@pytest.fixture
def tiny_machine() -> ATGPUMachine:
    """A 4-wide machine matching the tiny simulator device."""
    return ATGPUMachine(p=8, b=4, M=256, G=4096)


@pytest.fixture
def parameters() -> CostParameters:
    """Cost parameters with easily-checked round numbers."""
    return CostParameters(gamma=1e6, lam=10.0, sigma=1e-3, alpha=1e-4, beta=1e-6)


@pytest.fixture
def occupancy() -> OccupancyModel:
    """A two-MP occupancy model with an 8-block hardware limit."""
    return OccupancyModel(physical_mps=2, hardware_block_limit=8)


@pytest.fixture
def gtx650_preset():
    """The default (paper testbed) preset."""
    return GTX_650


@pytest.fixture
def tiny_config() -> DeviceConfig:
    """The tiny simulator configuration (warp width 4, fully functional)."""
    return DeviceConfig.tiny_test_device()


@pytest.fixture
def tiny_device(tiny_config) -> GPUDevice:
    """A fresh tiny simulated device."""
    return GPUDevice(tiny_config)


@pytest.fixture
def gtx650_device() -> GPUDevice:
    """A fresh GTX-650-like simulated device."""
    return GPUDevice(DeviceConfig.gtx650())
