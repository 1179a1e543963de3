"""A pool of simulated devices over a fleet's host interconnects.

:class:`DevicePool` is the simulator counterpart of
:class:`repro.core.sharding.TopologyCostModel`: it instantiates one
:class:`~repro.simulator.streams.StreamTimeline` per device of a
:class:`~repro.core.topology.Topology` — each with its own copy and compute
engines, so devices proceed concurrently — whose transfer parameters come
from one shared :class:`~repro.simulator.transfer_engine.TransferEngine`.
A ``(devices, contention)`` pair is ``Topology.homogeneous(devices,
contention)``: one host link shared by every device.

Interconnect contention is modelled the same way the analytic model prices
it: a host link with contention ``c`` shared by ``n`` devices stretches the
*streaming* portion of each of their transfers by ``1 + c·(n - 1)`` (the
fixed DMA-setup latency is per-device and does not stretch).  With equal
shards this charge equals the model's interpolation between fully parallel
per-device links (``c=0``) and one fully serialised shared link (``c=1``).

The pool's **makespan** is the completion time of the slowest device
(straggler), to be compared against :attr:`serial_time_s`, the back-to-back
cost of the very same operations on one device.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.topology import Topology, contention_stretch, resolve_fleet
from repro.core.transfer import TransferDirection
from repro.simulator.config import DeviceConfig
from repro.simulator.streams import Stream, StreamOp, StreamOpKind, StreamTimeline
from repro.simulator.timing import KernelTiming
from repro.simulator.transfer_engine import TransferEngine, TransferRecord


def contended_duration_grid(config: DeviceConfig, base_durations, stretch: float):
    """Vectorized twin of :meth:`DevicePool.transfer_duration` over durations.

    Takes the *uncontended* per-size durations (from
    :func:`~repro.simulator.transfer_engine.duration_grid`) and one device's
    link stretch, and applies the pool's contention formula elementwise:
    zero-duration markers stay free, everything else keeps its fixed DMA
    latency and stretches only the streaming portion.  Same float operand
    order as the scalar method, so results are bit-for-bit equal.
    """
    base = np.asarray(base_durations, dtype=float)
    if stretch == 1.0:
        return base
    streaming = base - config.transfer_latency_s
    return np.where(
        base == 0.0,
        base,
        config.transfer_latency_s + streaming * stretch,
    )


class DevicePool:
    """``P`` stream timelines over the host links of a fleet topology.

    Parameters
    ----------
    devices:
        Number of simulated devices in the pool.  Required without a
        ``topology``; beside one it may only repeat its device count.
    config:
        The per-device configuration (all devices are identical); defaults
        to the GTX-650-like device.
    contention:
        Interconnect-contention factor in ``[0, 1]`` of the one host link
        ``devices`` share (``None`` means ``0.0``).  It must stay ``None``
        beside a ``topology``, whose host links carry their own.
    topology:
        The :class:`~repro.core.topology.Topology` of the pool; without
        one it is ``Topology.homogeneous(devices, contention)`` (see
        :func:`~repro.core.topology.resolve_fleet`).  Devices on a socket
        with ``n`` peers and host-link contention ``c`` stretch their
        streaming time by :func:`~repro.core.topology.contention_stretch`
        ``(n, c)``; devices on different sockets do not contend with each
        other, so heterogeneous fleets get per-device link stretch from
        the same description the analytic model prices.
    """

    def __init__(
        self,
        devices: Optional[int] = None,
        config: Optional[DeviceConfig] = None,
        contention: Optional[float] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        self.topology = resolve_fleet(
            devices, contention, topology, default_devices=None
        )
        self.num_devices = self.topology.num_devices
        self.config = config or DeviceConfig.gtx650()
        self._stretches: Tuple[float, ...] = tuple(
            contention_stretch(
                len(self.topology.devices_on_socket(device.socket)),
                self.topology.host_link(device.socket).contention,
            )
            for device in self.topology.devices
        )
        self.transfer_engine = TransferEngine(self.config)
        self.timelines: List[StreamTimeline] = [
            StreamTimeline() for _ in range(self.num_devices)
        ]
        self._serial_time_s = 0.0

    # ------------------------------------------------------------------ #
    # Link model
    # ------------------------------------------------------------------ #
    @property
    def link_stretch(self) -> float:
        """Streaming-time multiplier, ``1 + c·(n-1)``, of the worst link.

        On a homogeneous pool every device shares one link, so this is
        *the* stretch; otherwise it is the most-contended socket's (use
        :meth:`device_stretch` for a specific device).
        """
        return max(self._stretches)

    def device_stretch(self, device: int) -> float:
        """Streaming-time multiplier on one device's host link."""
        if not 0 <= device < self.num_devices:
            raise IndexError(
                f"device index {device} outside pool of {self.num_devices}"
            )
        return self._stretches[device]

    def transfer_duration(
        self,
        words: int,
        direction: TransferDirection,
        pinned: bool = False,
        device: Optional[int] = None,
    ) -> float:
        """Seconds one device spends moving ``words`` words over its link.

        ``device`` selects that device's link stretch; when omitted the
        pool-wide (worst-link) stretch applies, which is every device's
        on a homogeneous pool.
        """
        base = self.transfer_engine.duration(words, direction, pinned=pinned)
        stretch = (
            self.link_stretch
            if device is None
            else self.device_stretch(device)
        )
        if base == 0.0 or stretch == 1.0:
            return base
        streaming = base - self.config.transfer_latency_s
        return self.config.transfer_latency_s + streaming * stretch

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def timeline(self, device: int) -> StreamTimeline:
        """The stream timeline of one device (0-indexed)."""
        if not 0 <= device < self.num_devices:
            raise IndexError(
                f"device index {device} outside pool of {self.num_devices}"
            )
        return self.timelines[device]

    def add_transfer(
        self,
        device: int,
        words: int,
        direction: TransferDirection,
        stream: "Stream | str" = "main",
        pinned: bool = False,
        label: str = "",
        wait: Sequence[StreamOp] = (),
    ) -> StreamOp:
        """Schedule a (possibly contended) copy on one device's timeline.

        The transfer is also appended to the pool's shared
        :class:`TransferEngine` record list with its *stretched* duration, so
        link statistics reflect what the pool actually charged.
        """
        timeline = self.timeline(device)
        self._serial_time_s += self.transfer_engine.duration(
            words, direction, pinned=pinned
        )
        duration = self.transfer_duration(
            words, direction, pinned=pinned, device=device
        )
        record = TransferRecord(
            direction=direction,
            words=int(words),
            duration_s=duration,
            pinned=pinned,
            label=label,
        )
        self.transfer_engine.records.append(record)
        kind = (
            StreamOpKind.H2D
            if direction is TransferDirection.HOST_TO_DEVICE
            else StreamOpKind.D2H
        )
        return timeline.submit(
            stream,
            kind,
            duration,
            name=f"{kind.value} {label}".strip(),
            wait=wait,
            details=f"{int(words)} words",
        )

    def add_kernel(
        self,
        device: int,
        timing: KernelTiming,
        stream: "Stream | str" = "main",
        wait: Sequence[StreamOp] = (),
    ) -> StreamOp:
        """Schedule a kernel launch on one device's timeline."""
        timeline = self.timeline(device)
        self._serial_time_s += timing.total_time_s
        return timeline.add_kernel(stream, timing, wait=wait)

    def add_host(
        self,
        device: int,
        duration_s: float,
        name: str = "host",
        stream: "Stream | str" = "main",
        wait: Sequence[StreamOp] = (),
    ) -> StreamOp:
        """Schedule host-side work (e.g. a sync) on one device's timeline."""
        timeline = self.timeline(device)
        self._serial_time_s += float(duration_s)
        return timeline.submit(
            stream, StreamOpKind.HOST, duration_s, name=name, wait=wait
        )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def makespan_s(self) -> float:
        """Completion time of the slowest device — the pool's total time."""
        return max(t.makespan_s for t in self.timelines)

    def device_makespans(self) -> Tuple[float, ...]:
        """Per-device completion times (the spread shows the imbalance)."""
        return tuple(t.makespan_s for t in self.timelines)

    @property
    def straggler(self) -> int:
        """Index of the device finishing last."""
        spans = self.device_makespans()
        return spans.index(max(spans))

    @property
    def serial_time_s(self) -> float:
        """The same operations executed back to back on one device.

        A single device has the link to itself, so transfers count at their
        *uncontended* durations here (the stretched durations are what the
        pool's timelines were charged); comparing against :attr:`makespan_s`
        therefore prices sharding and contention together, as the analytic
        serial-over-sharded cost ratio does.  Only operations submitted
        through the pool's own ``add_*`` methods are counted.
        """
        return self._serial_time_s

    @property
    def sharding_speedup(self) -> float:
        """Serial-over-pool time ratio (1.0 = no benefit from sharding)."""
        if self.makespan_s == 0:
            return 1.0
        return self.serial_time_s / self.makespan_s

    def engine_busy_times(self) -> Dict[str, float]:
        """Busy seconds per engine, summed across devices."""
        out: Dict[str, float] = {}
        for timeline in self.timelines:
            for engine, busy in timeline.engine_busy_times().items():
                out[engine] = out.get(engine, 0.0) + busy
        return out

    def render(self) -> str:
        """Profiler-style rendering: one section per device."""
        sections = [
            f"Pool: {self.num_devices} devices over "
            f"{len(self.topology.sockets)} socket(s) (worst link "
            f"stretch {self.link_stretch:g}x), "
            f"makespan {self.makespan_s * 1e3:.4f} ms"
        ]
        for index, timeline in enumerate(self.timelines):
            sections.append(
                f"-- device {index} "
                f"(makespan {timeline.makespan_s * 1e3:.4f} ms)"
            )
            sections.append(timeline.render())
        return "\n".join(sections)
