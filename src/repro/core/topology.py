"""First-class device-fleet topology descriptions and shard planning.

The simplest multi-device fleet is ``P`` identical devices splitting each
round near-evenly over one shared host link — the ``(devices,
contention)`` pair of the ``atgpu-multi`` backends and the sharded
simulator runs, which :meth:`Topology.homogeneous` turns into a
topology.  Real fleets are not like that: devices come in mixed
generations (per-device GPU presets and occupancy limits), NUMA hosts
expose one link complex per socket, and peer-to-peer fabrics let devices
exchange partial results without touching the host link at all.

This module is the *description* half of the multi-device model:

* :class:`DeviceSpec` — one device of the fleet: an optional per-device
  GPU preset override, an optional occupancy (hardware block limit)
  override, and the host socket the device is attached to.
* :class:`LinkSpec` — one interconnect: a ``"host"`` link (per-socket
  PCIe complex with its own contention factor and optional ``α``/``β``
  transfer-parameter overrides) or a ``"p2p"`` fabric (device↔device
  transfers for shuffle/merge phases, bypassing the host).
* :class:`Topology` — the frozen, hashable, JSON-round-trippable bundle
  that flows through :class:`~repro.experiments.spec.ExperimentSpec` →
  :class:`~repro.core.sharding.TopologyCostModel` →
  :class:`~repro.simulator.device_pool.DevicePool`, so model, simulator
  and serving keys all consume one fleet description.
* :func:`resolve_fleet` — the one place a ``(devices, contention)`` pair
  or a topology argument becomes the :class:`Topology` of a run.
* :func:`plan_shards` — the load-aware partitioner: integer shard sizes
  minimising the straggler finish time given per-device throughputs.
  With equal throughputs it reduces **exactly** to near-even splitting
  (first shards carry the extras), so homogeneous fleets shard the way
  :func:`~repro.algorithms.base.chunk_bounds` chunks.

The cost-model half (:class:`~repro.core.sharding.TopologyCostModel`
and its batch evaluator) lives in :mod:`repro.core.sharding`; the
P2P shuffle terms are grounded in Choi et al., *Accelerating
Communication for Parallel Programming Models on GPU Systems*.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.utils.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_non_negative_int,
    ensure_positive_int,
    reject_unknown_fields,
)

#: The interconnect kinds a :class:`LinkSpec` may declare.
LINK_KINDS: Tuple[str, ...] = ("host", "p2p")


def contended_streaming(total, shard, contention):
    """Streaming charge of one device on a shared link: ``c·total + (1−c)·shard``.

    ``contention`` interpolates between fully independent per-device
    links (``0``: the device streams only its own ``shard``) and one
    fully serialised link (``1``: every one of the link's ``total``
    units queues).  This is the single formula behind both the analytic
    sharded transfer models and the simulator's link stretch; it works
    elementwise on NumPy arrays, so the scalar and batch evaluators
    share it verbatim.
    """
    return contention * total + (1.0 - contention) * shard


def contention_stretch(devices, contention):
    """Streaming-time multiplier on a link shared by ``P`` devices.

    The ``1 + c·(P−1)`` factor the simulator's
    :class:`~repro.simulator.device_pool.DevicePool` stretches transfers
    by.  With equal shards it is :func:`contended_streaming` evaluated at
    ``total = P·shard`` (each device's shard is stretched by the ``P−1``
    peers contending for the link), so model and simulator cannot drift
    apart.
    """
    return 1.0 + contention * (devices - 1)


@dataclass(frozen=True)
class DeviceSpec:
    """One device of a fleet.

    Parameters
    ----------
    preset:
        Name of the GPU preset this device runs as (see
        :func:`repro.core.presets.get_preset`).  ``None`` means "the
        fleet default" — whatever preset the enclosing experiment spec
        names — so a fleet of default devices prices on the spec's own
        GPU, as ``Topology.homogeneous`` does.
    hardware_block_limit:
        Optional per-device occupancy override (the ``H`` of the wave
        count ``⌈k_i/(k'·ℓ)⌉``); ``None`` keeps the resolved preset's.
    socket:
        Index of the host socket (and therefore host link) the device
        hangs off.  Sockets are just labels; every socket referenced by
        a device must have exactly one ``"host"`` link.
    name:
        Optional human-readable label (ignored by the model).
    """

    preset: Optional[str] = None
    hardware_block_limit: Optional[int] = None
    socket: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.preset is not None:
            if not isinstance(self.preset, str):
                raise TypeError(
                    "a device preset override must be a preset name, got "
                    f"{type(self.preset).__name__}"
                )
            if not self.preset:
                raise ValueError(
                    "a device preset override must be a non-empty name"
                )
        if not isinstance(self.name, str):
            raise TypeError(
                f"a device name must be a str, got {type(self.name).__name__}"
            )
        if self.hardware_block_limit is not None:
            ensure_positive_int(
                self.hardware_block_limit, "hardware_block_limit"
            )
        ensure_non_negative_int(self.socket, "socket")

    @property
    def is_default(self) -> bool:
        """Whether the device carries no preset/occupancy override."""
        return self.preset is None and self.hardware_block_limit is None

    def to_dict(self) -> Dict[str, Any]:
        """The device as a plain JSON-serialisable dictionary."""
        return {
            "preset": self.preset,
            "hardware_block_limit": self.hardware_block_limit,
            "socket": self.socket,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeviceSpec":
        """Rebuild a device from :meth:`to_dict` output.

        Unknown keys raise a typed
        :class:`~repro.utils.validation.UnknownFieldError` naming the
        offending field.
        """
        reject_unknown_fields(
            "DeviceSpec", data, (f.name for f in fields(cls))
        )
        return cls(**dict(data))


@dataclass(frozen=True)
class LinkSpec:
    """One interconnect of a fleet.

    Parameters
    ----------
    kind:
        ``"host"`` for a socket's host↔device link complex, ``"p2p"``
        for a device↔device fabric (at most one per topology).
    socket:
        The socket a ``"host"`` link serves (ignored for ``"p2p"``).
    contention:
        Share of the streaming that serialises on this link, in
        ``[0, 1]``.  It is per link: devices on different sockets do
        not contend with each other.
    alpha, beta:
        Optional per-transaction / per-word cost overrides for
        transfers on this link; ``None`` falls back to the fleet cost
        parameters (the spec preset's ``α``/``β``).  A P2P fabric is
        typically given a smaller ``β`` (higher bandwidth) and ``alpha``
        (lower latency) than the host link.
    """

    kind: str = "host"
    socket: int = 0
    contention: float = 0.0
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in LINK_KINDS:
            raise ValueError(
                f"link kind must be one of {', '.join(LINK_KINDS)}; "
                f"got {self.kind!r}"
            )
        ensure_non_negative_int(self.socket, "socket")
        ensure_in_range(self.contention, "contention", 0.0, 1.0)
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(
                ensure_non_negative(value, name)
            ):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def to_dict(self) -> Dict[str, Any]:
        """The link as a plain JSON-serialisable dictionary."""
        return {
            "kind": self.kind,
            "socket": self.socket,
            "contention": self.contention,
            "alpha": self.alpha,
            "beta": self.beta,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkSpec":
        """Rebuild a link from :meth:`to_dict` output (typed unknown-key error)."""
        reject_unknown_fields(
            "LinkSpec", data, (f.name for f in fields(cls))
        )
        return cls(**dict(data))


@dataclass(frozen=True)
class Topology:
    """A frozen, hashable description of a multi-device fleet.

    ``devices`` lists the fleet's devices in pool order; ``links`` its
    interconnects — exactly one ``"host"`` link per referenced socket
    and at most one ``"p2p"`` fabric.  The default single ``links``
    entry (one uncontended host link on socket 0) makes
    ``Topology(devices=(DeviceSpec(),) * P)`` the homogeneous fleet.

    Instances round-trip through :meth:`to_dict` / :meth:`from_dict`
    (and JSON), are hashable (usable as cache keys directly), and carry
    a memoised :meth:`topology_hash` over their canonical JSON — the
    token included in spec hashes, batch-cache keys and the serving
    layer's coalescing keys.
    """

    devices: Tuple[DeviceSpec, ...] = (DeviceSpec(),)
    links: Tuple[LinkSpec, ...] = (LinkSpec(),)

    def __post_init__(self) -> None:
        devices = tuple(
            DeviceSpec.from_dict(d) if isinstance(d, Mapping) else d
            for d in self.devices
        )
        links = tuple(
            LinkSpec.from_dict(l) if isinstance(l, Mapping) else l
            for l in self.links
        )
        if not devices:
            raise ValueError("a topology needs at least one device")
        for device in devices:
            if not isinstance(device, DeviceSpec):
                raise TypeError(
                    f"topology devices must be DeviceSpec, got "
                    f"{type(device).__name__}"
                )
        for link in links:
            if not isinstance(link, LinkSpec):
                raise TypeError(
                    f"topology links must be LinkSpec, got "
                    f"{type(link).__name__}"
                )
        host_sockets = [l.socket for l in links if l.kind == "host"]
        if len(set(host_sockets)) != len(host_sockets):
            raise ValueError(
                "a topology may declare at most one host link per socket"
            )
        if sum(1 for l in links if l.kind == "p2p") > 1:
            raise ValueError(
                "a topology may declare at most one p2p fabric"
            )
        missing = sorted(
            {d.socket for d in devices} - set(host_sockets)
        )
        if missing:
            raise ValueError(
                "every device socket needs a host link; missing host "
                f"link(s) for socket(s): {', '.join(map(str, missing))}"
            )
        object.__setattr__(self, "devices", devices)
        object.__setattr__(self, "links", links)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def homogeneous(
        cls, devices: int, contention: float = 0.0
    ) -> "Topology":
        """``P`` identical devices on one host link with ``contention``.

        The fleet every ``(devices, contention)`` argument pair names:
        the ``atgpu-multi`` backends price it and the sharded simulator
        runs schedule on it (see :func:`resolve_fleet`).  With one
        device it prices exactly like Expression (2).
        """
        ensure_positive_int(devices, "devices")
        return cls(
            devices=tuple(DeviceSpec() for _ in range(devices)),
            links=(LinkSpec(kind="host", socket=0, contention=contention),),
        )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        """Number of devices in the fleet."""
        return len(self.devices)

    @property
    def sockets(self) -> Tuple[int, ...]:
        """Distinct sockets devices sit on, sorted."""
        return tuple(sorted({d.socket for d in self.devices}))

    def host_link(self, socket: int) -> LinkSpec:
        """The host link serving ``socket``."""
        for link in self.links:
            if link.kind == "host" and link.socket == socket:
                return link
        raise KeyError(f"topology has no host link for socket {socket}")

    @property
    def p2p_link(self) -> Optional[LinkSpec]:
        """The fleet's p2p fabric, or ``None``."""
        for link in self.links:
            if link.kind == "p2p":
                return link
        return None

    @property
    def has_p2p(self) -> bool:
        """Whether the fleet declares a device↔device fabric."""
        return self.p2p_link is not None

    def devices_on_socket(self, socket: int) -> Tuple[int, ...]:
        """Indices of the devices attached to ``socket``, in pool order."""
        return tuple(
            index for index, d in enumerate(self.devices)
            if d.socket == socket
        )

    @property
    def is_uniform(self) -> bool:
        """Whether the fleet is a ``Topology.homogeneous`` one.

        True when no device carries an override, everything sits on one
        socket whose host link keeps the fleet ``α``/``β``, and there is
        no p2p fabric — i.e. the topology is fully described by
        ``(devices, contention)``, and the batch evaluator may take the
        :func:`~repro.core.batch.sharded_cost_batch` fast path.
        """
        if not all(d.is_default for d in self.devices):
            return False
        if len(self.sockets) != 1 or self.has_p2p:
            return False
        link = self.host_link(self.sockets[0])
        return link.alpha is None and link.beta is None

    # ------------------------------------------------------------------ #
    # Throughput weights
    # ------------------------------------------------------------------ #
    def throughputs(
        self, parameters=None, occupancy=None
    ) -> Tuple[float, ...]:
        """Relative per-device throughput weights for shard planning.

        A device's weight is ``γ · k' · H`` — its time scale times the
        number of thread blocks it can have resident per wave — resolved
        from its preset override (or the supplied fleet-default
        ``parameters``/``occupancy``; the package default preset when
        neither is given).  Devices with identical resolutions get
        *identical* weights, so homogeneous fleets plan exactly the
        near-even splits.
        """
        from repro.core.presets import DEFAULT_PRESET, get_preset

        if parameters is None:
            parameters = DEFAULT_PRESET.parameters
        if occupancy is None:
            occupancy = DEFAULT_PRESET.occupancy
        weights = []
        for device in self.devices:
            if device.preset is None:
                params, occ = parameters, occupancy
            else:
                preset = get_preset(device.preset)
                params, occ = preset.parameters, preset.occupancy
            limit = (
                device.hardware_block_limit
                if device.hardware_block_limit is not None
                else occ.hardware_block_limit
            )
            weights.append(params.gamma * occ.physical_mps * limit)
        return tuple(weights)

    # ------------------------------------------------------------------ #
    # Serialisation and hashing
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The topology as a plain JSON-serialisable dictionary."""
        return {
            "devices": [d.to_dict() for d in self.devices],
            "links": [l.to_dict() for l in self.links],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Topology":
        """Rebuild a topology from :meth:`to_dict` output.

        Unknown keys (at any level) raise a typed
        :class:`~repro.utils.validation.UnknownFieldError` naming the
        offending field — a ``"topolgy"``-style typo can never fall back
        to a silently homogeneous fleet.
        """
        reject_unknown_fields(
            "Topology", data, (f.name for f in fields(cls))
        )
        # Construction coerces nested device and link mappings.
        return cls(**dict(data))

    def to_json(self) -> str:
        """The topology as canonical (sorted-key) JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        """Rebuild a topology from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def topology_hash(self) -> str:
        """Stable short hash of the canonical JSON (memoised).

        This token is what spec hashes, batch-cache prediction keys and
        the serving layer's coalescing keys include, and what
        auto-registered topology backends are named after.
        """
        cached = self.__dict__.get("_topology_hash")
        if cached is None:
            cached = hashlib.sha256(
                self.to_json().encode("utf-8")
            ).hexdigest()[:16]
            # repro-lint: disable=FRZ001 -- write-once memo derived from frozen fields
            object.__setattr__(self, "_topology_hash", cached)
        return cached


#: Devices in the fleet of a sharded run given neither ``devices`` nor a
#: topology (also the default ``atgpu-multi`` backend's device count).
DEFAULT_SHARD_DEVICES = 2


def resolve_fleet(
    devices: Optional[int] = None,
    contention: Optional[float] = None,
    topology: Optional[Topology] = None,
    *,
    default_devices: Optional[int] = DEFAULT_SHARD_DEVICES,
) -> Topology:
    """The fleet a ``(devices, contention)`` pair or a ``topology`` names.

    Without a topology the fleet is ``Topology.homogeneous(devices,
    contention)``, where ``None`` means ``default_devices`` devices (an
    error when that is ``None`` too) and contention ``0.0``.  Beside a
    topology, ``devices`` may only repeat its device count and
    ``contention`` must stay ``None`` (the topology's host links carry
    the contention), so neither is dropped without a word.
    """
    if topology is None:
        if devices is None:
            devices = default_devices
        if devices is None:
            raise ValueError("a fleet needs devices or a topology")
        return Topology.homogeneous(
            devices, 0.0 if contention is None else contention
        )
    if not isinstance(topology, Topology):
        raise TypeError(
            f"topology must be a Topology, got {type(topology).__name__}"
        )
    if devices is not None and devices != topology.num_devices:
        raise ValueError(
            f"devices={devices} disagrees with the topology's "
            f"{topology.num_devices} devices"
        )
    if contention is not None:
        raise ValueError(
            f"contention={contention} cannot be combined with a topology; "
            "set it on the topology's host links"
        )
    return topology


# --------------------------------------------------------------------- #
# Load-aware shard planning
# --------------------------------------------------------------------- #
def plan_shards(total: int, weights: Sequence[float]) -> List[int]:
    """Integer shard sizes minimising the straggler finish time.

    Splits ``total`` indivisible units (thread blocks, words) across
    devices with relative ``weights`` (units-per-time throughputs): each
    device starts from the floor of its proportional share
    ``⌊total·wᵢ/W⌋`` and the remaining units go one at a time to the
    device whose finish time ``(sᵢ+1)/wᵢ`` after taking the unit is
    smallest (ties to the lowest index) — the standard greedy
    water-filling, optimal for minimising ``max sᵢ/wᵢ`` over integer
    apportionments.

    **Equal weights reduce exactly** to the near-even ``divmod`` split
    (the first ``total % P`` shards carry one extra unit) — taken as a
    dedicated branch so no floating point touches the homogeneous case.
    Shards may be zero (those devices idle).
    """
    ensure_non_negative_int(total, "total")
    if not weights:
        raise ValueError("plan_shards needs at least one device weight")
    for weight in weights:
        if not weight > 0:
            raise ValueError(
                f"device weights must be positive, got {weight!r}"
            )
    count = len(weights)
    if all(w == weights[0] for w in weights):
        base, extra = divmod(total, count)
        return [base + (1 if index < extra else 0) for index in range(count)]
    scale = float(sum(weights))
    shards = [int(math.floor(total * w / scale)) for w in weights]
    remaining = total - sum(shards)
    for _ in range(remaining):
        index = min(
            range(count), key=lambda i: (shards[i] + 1.0) / weights[i]
        )
        shards[index] += 1
    return shards


def plan_bounds(
    total: int, weights: Sequence[float]
) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` bounds realising :func:`plan_shards`.

    One bound per device, in order; empty shards produce zero-width
    bounds (``lo == hi``) so callers can skip idle devices while keeping
    device indices aligned with the topology.
    """
    bounds = []
    lo = 0
    for size in plan_shards(total, weights):
        bounds.append((lo, lo + size))
        lo += size
    return bounds


def straggler_finish(
    shards: Sequence[float], weights: Sequence[float]
) -> float:
    """The straggler's finish time ``max sᵢ/wᵢ`` of a given split.

    The objective :func:`plan_shards` minimises; exposed so callers
    and tests can compare load-aware splits against even baselines.
    """
    if len(shards) != len(weights):
        raise ValueError(
            f"got {len(shards)} shards but {len(weights)} weights"
        )
    return max(
        (shard / weight for shard, weight in zip(shards, weights)),
        default=0.0,
    )
