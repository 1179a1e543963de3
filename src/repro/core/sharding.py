"""Multi-device sharded execution of the ATGPU cost model.

The paper charges every transfer to a single host↔device link and every
kernel to a single GPU.  Real deployments shard a round's work across ``P``
devices (CrystalGPU-style transparent multi-GPU utilisation): each device
receives its shard of the inward words, runs its shard of the thread blocks,
and returns its shard of the outward words, while the host interconnect —
one PCIe/NVLink complex shared by every device — becomes the contended
resource.

This module prices that regime analytically over a
:class:`~repro.core.topology.Topology`, the one description of a fleet:

* :class:`TopologyCostModel` is the scalar reference.  Each round's words
  and thread blocks split across the devices, a ``contention`` factor per
  host link interpolates between fully independent per-device links
  (``0``: every device streams its shard concurrently) and one fully
  shared serial interconnect (``1``: all words queue on the same link),
  and the round is charged the **maximum** (straggler) device time.
* :func:`topology_cost_batch` is its vector form; uniform fleets take the
  :func:`~repro.core.batch.sharded_cost_batch` fast path.

``(devices, contention)`` is ``Topology.homogeneous(devices, contention)``.
On such a fleet both degeneracies are exact: ``P=1`` reproduces
:class:`~repro.core.cost.ATGPUCostModel` bit for bit, and ``contention=1``
reproduces the serial :class:`~repro.core.transfer.BoyerTransferModel`
transfer terms for any ``P``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    BatchBreakdown,
    MetricsBatch,
    _column_sum,
    sharded_cost_batch,
)
from repro.core.cost import CostBreakdown, CostParameters
from repro.core.machine import ATGPUMachine
from repro.core.metrics import AlgorithmMetrics, RoundMetrics
from repro.core.occupancy import (
    OccupancyModel,
    blocks_per_multiprocessor_grid,
    wave_count_grid,
)
from repro.core.topology import Topology, contended_streaming, plan_shards
from repro.utils.validation import ensure_non_negative, ensure_non_negative_int

#: Shard planners a :class:`TopologyCostModel` may use: ``"load-aware"``
#: sizes shards by per-device throughput (:func:`plan_shards`);
#: ``"even"`` keeps the near-even split regardless of throughput (the
#: baseline the benchmarks compare against).
PLANNERS: Tuple[str, ...] = ("load-aware", "even")


def ensure_planner(planner: str) -> str:
    """Return ``planner`` if it names one of :data:`PLANNERS`."""
    if planner not in PLANNERS:
        raise ValueError(
            f"planner must be one of {', '.join(PLANNERS)}; got {planner!r}"
        )
    return planner


# --------------------------------------------------------------------- #
# Topology-aware (heterogeneous) sharded cost
# --------------------------------------------------------------------- #
class TopologyCostModel:
    """Expression (2) over an arbitrary :class:`~repro.core.topology.Topology`.

    The scalar reference for every multi-device fleet:

    * each device resolves its own ``(machine, parameters, occupancy)``
      from its :class:`~repro.core.topology.DeviceSpec` preset/occupancy
      overrides (defaulting to the fleet's);
    * each round's thread blocks and words split by the load-aware
      :func:`~repro.core.topology.plan_shards` over per-device
      throughputs (or near-evenly under the ``"even"`` planner);
    * a device's streaming charge contends only with the devices on its
      *own* socket's host link (per-link ``contention`` and optional
      ``α``/``β`` overrides);
    * a ``"p2p"`` fabric adds a ``⌈log₂P⌉``-step shuffle term for the
      partial-result merges of reduction-style rounds (charged on the
      outward side, after Choi et al.'s one-sided P2P cost shape);
    * the round is charged the per-round **maximum** (straggler) device
      time plus one pool-wide synchronisation ``σ``.

    On a homogeneous topology (``Topology.homogeneous(P, c)``) equal
    weights plan near-even splits under either planner, device 0 holds
    the ceiling shards and is the first-maximum straggler, so each
    direction costs ``T·α + (c·W + (1−c)·⌈W/P⌉)·β`` and the kernel side
    is device 0's ``⌈k/P⌉`` blocks.
    """

    def __init__(
        self,
        machine: ATGPUMachine,
        parameters: CostParameters,
        occupancy: OccupancyModel,
        topology: Topology,
        planner: str = "load-aware",
    ) -> None:
        if occupancy is None:
            raise ValueError(
                "topology GPU-cost requires an OccupancyModel (the "
                "per-device wave count of Expression 2)"
            )
        if not isinstance(topology, Topology):
            raise TypeError(
                f"topology must be a Topology, got {type(topology).__name__}"
            )
        ensure_planner(planner)
        from repro.core.presets import get_preset

        self.machine = machine
        self.parameters = parameters
        self.occupancy = occupancy
        self.topology = topology
        self.planner = planner
        resolutions = []
        for device in topology.devices:
            if device.preset is None:
                mach, params, occ = machine, parameters, occupancy
            else:
                preset = get_preset(device.preset)
                mach, params, occ = (
                    preset.machine, preset.parameters, preset.occupancy
                )
            if device.hardware_block_limit is not None:
                occ = OccupancyModel(
                    physical_mps=occ.physical_mps,
                    hardware_block_limit=device.hardware_block_limit,
                )
            resolutions.append((mach, params, occ))
        #: Per-device ``(machine, parameters, occupancy)`` triples.
        self.resolutions: Tuple[
            Tuple[ATGPUMachine, CostParameters, OccupancyModel], ...
        ] = tuple(resolutions)
        #: Per-device throughput weights (shard-planning inputs).
        self.weights: Tuple[float, ...] = topology.throughputs(
            parameters, occupancy
        )
        if planner == "even":
            self.plan_weights: Tuple[float, ...] = (1.0,) * len(resolutions)
        else:
            self.plan_weights = self.weights
        # Per-device link view: transfer parameters fall back to the
        # fleet's (the link is a property of the host complex, not the
        # GPU behind it, so a homogeneous fleet's transfers price at the
        # fleet's own α/β).
        links = []
        for device in topology.devices:
            link = topology.host_link(device.socket)
            members = topology.devices_on_socket(device.socket)
            links.append((
                link.alpha if link.alpha is not None else parameters.alpha,
                link.beta if link.beta is not None else parameters.beta,
                link.contention,
                members,
                len(members) == topology.num_devices,
            ))
        #: Per-device ``(α, β, contention, socket members, covers_all)``.
        self.device_links = tuple(links)

    # ------------------------------------------------------------------ #
    # Shard planning
    # ------------------------------------------------------------------ #
    def _word_shards(self, words: float) -> List[float]:
        """Per-device word shards of one transfer (as floats).

        Whole-word counts plan like thread blocks
        (:func:`~repro.core.topology.plan_shards`); non-integral word
        counts (continuous analyses) split proportionally — exactly
        ``words / P`` under equal weights.
        """
        count = len(self.plan_weights)
        if words == 0:
            return [0.0] * count
        weights = self.plan_weights
        if float(words).is_integer():
            return [float(s) for s in plan_shards(int(words), weights)]
        if all(w == weights[0] for w in weights):
            return [words / count] * count
        scale = float(sum(weights))
        return [words * w / scale for w in weights]

    # ------------------------------------------------------------------ #
    # Per-device costs
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_transfer(words: float, transactions: int) -> None:
        ensure_non_negative(words, "words")
        ensure_non_negative_int(transactions, "transactions")
        if words > 0 and transactions == 0:
            raise ValueError(
                "moving a positive number of words requires >= 1 transaction"
            )

    def _device_transfer(
        self,
        device: int,
        words: float,
        transactions: int,
        shards: Sequence[float],
    ) -> float:
        """One device's link time for its shard of a transfer.

        A device alone on its socket streams only its own shard (the
        exact single-link degeneracy, so ``P=1`` is the Boyer cost);
        otherwise the shard contends with its socket peers' share of the
        transfer under the link's ``contention`` factor.  ``α`` is charged
        once per logical transaction: every device issues its own
        sub-transaction, but the DMA setups proceed concurrently, so the
        straggler pays only its own fixed overhead.
        """
        alpha, beta, contention, members, covers_all = (
            self.device_links[device]
        )
        if len(members) == 1:
            streaming = shards[device]
        else:
            if covers_all:
                link_words = float(words)
            else:
                link_words = 0.0
                for member in members:
                    link_words = link_words + shards[member]
            streaming = contended_streaming(
                link_words, shards[device], contention
            )
        return transactions * alpha + streaming * beta

    def _device_kernel_terms(
        self, device: int, blocks: int, metrics: RoundMetrics
    ) -> Tuple[float, float]:
        """``(compute, io)`` of one round on ``device`` holding ``blocks``."""
        if blocks == 0:
            return (0.0, 0.0)
        mach, params, occ = self.resolutions[device]
        waves = occ.waves(
            thread_blocks=blocks,
            shared_memory_capacity=mach.M,
            shared_words_per_block=metrics.shared_words_per_mp,
        )
        io_share = blocks / metrics.thread_blocks
        return (
            waves * metrics.time / params.gamma,
            params.lam * metrics.io_blocks * io_share / params.gamma,
        )

    # ------------------------------------------------------------------ #
    # Per-round costs
    # ------------------------------------------------------------------ #
    def round_breakdown(self, metrics: RoundMetrics) -> CostBreakdown:
        """Itemised straggler-device cost of one round.

        Every device's transfer + kernel time is priced from its planned
        shards; the round is charged the slowest device's components
        (first maximum on ties, so homogeneous fleets charge device 0,
        the ceiling-shard holder), plus the P2P shuffle term when a
        fabric is declared.
        """
        self._check_transfer(
            metrics.inward_words, metrics.inward_transactions
        )
        self._check_transfer(
            metrics.outward_words, metrics.outward_transactions
        )
        count = self.topology.num_devices
        block_shards = plan_shards(
            metrics.thread_blocks, self.plan_weights
        )
        in_shards = self._word_shards(metrics.inward_words)
        out_shards = self._word_shards(metrics.outward_words)
        components = []
        for device in range(count):
            inward = self._device_transfer(
                device, metrics.inward_words,
                metrics.inward_transactions, in_shards,
            )
            outward = self._device_transfer(
                device, metrics.outward_words,
                metrics.outward_transactions, out_shards,
            )
            compute, io = self._device_kernel_terms(
                device, block_shards[device], metrics
            )
            components.append((inward, outward, compute, io))
        totals = [
            (inward + outward) + (compute + io)
            for inward, outward, compute, io in components
        ]
        straggler = max(range(count), key=totals.__getitem__)
        inward_s, outward_s, compute_s, io_s = components[straggler]
        shuffle = self._shuffle_term(metrics, out_shards)
        if shuffle != 0.0:
            outward_s = outward_s + shuffle
        return CostBreakdown(
            inward_transfer=inward_s,
            outward_transfer=outward_s,
            compute=compute_s,
            io=io_s,
            synchronisation=self.parameters.sigma,
        )

    def _shuffle_term(
        self, metrics: RoundMetrics, out_shards: Sequence[float]
    ) -> float:
        """P2P partial-merge cost of one round (``0.0`` without a fabric).

        Rounds that emit partial results (positive outward words) merge
        them over the fabric in ``⌈log₂P⌉`` exchange steps; each step
        moves at most the largest outward shard, charged at the fabric's
        ``α``/``β``.
        """
        p2p = self.topology.p2p_link
        count = self.topology.num_devices
        if p2p is None or count == 1 or not metrics.outward_words > 0:
            return 0.0
        alpha = p2p.alpha if p2p.alpha is not None else self.parameters.alpha
        beta = p2p.beta if p2p.beta is not None else self.parameters.beta
        steps = math.ceil(math.log2(count))
        return steps * (alpha + max(out_shards) * beta)

    def round_cost(self, metrics: RoundMetrics) -> float:
        """Scalar straggler cost of one round."""
        return self.round_breakdown(metrics).total

    # ------------------------------------------------------------------ #
    # Whole-algorithm costs
    # ------------------------------------------------------------------ #
    def breakdown(self, metrics: AlgorithmMetrics) -> CostBreakdown:
        """Itemised topology cost of a whole algorithm (sum over rounds)."""
        metrics.validate_against(self.machine)
        for mach in {mach for mach, _, _ in self.resolutions}:
            if mach != self.machine:
                metrics.validate_against(mach)
        total = CostBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
        for round_metrics in metrics:
            total = total + self.round_breakdown(round_metrics)
        return total

    def gpu_cost(self, metrics: AlgorithmMetrics) -> float:
        """The topology GPU-cost: sum of per-round straggler times."""
        return self.breakdown(metrics).total


def topology_gpu_cost(
    metrics: AlgorithmMetrics,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel],
    topology: Topology,
    planner: str = "load-aware",
) -> float:
    """Functional form of :meth:`TopologyCostModel.gpu_cost` (backend entry)."""
    model = TopologyCostModel(
        machine, parameters, occupancy, topology, planner=planner
    )
    return model.gpu_cost(metrics)


# --------------------------------------------------------------------- #
# Topology-aware batch evaluation
# --------------------------------------------------------------------- #
def _equal_weights(weights: Sequence[float]) -> bool:
    return all(w == weights[0] for w in weights)


def _plan_shards_grid(
    totals: np.ndarray, weights: Sequence[float]
) -> np.ndarray:
    """Vectorized :func:`~repro.core.topology.plan_shards` over a grid.

    ``totals`` is a ``(rounds, sizes)`` grid of integer-valued unit
    counts; the result is ``(P, rounds, sizes)`` with the scalar
    planner's exact splits in every cell: the equal-weight branch is the
    divmod split, the general branch replays the greedy water-filling
    with a first-minimum ``argmin`` per step — at most ``P`` leftover
    units exist per cell, so the loop is short and cells that finish
    early are masked out.
    """
    totals = np.asarray(totals, dtype=float)
    count = len(weights)
    if _equal_weights(weights):
        base = np.floor(totals / count)
        extra = totals - base * count
        index = np.arange(count, dtype=float).reshape(
            (count,) + (1,) * totals.ndim
        )
        return base[None, ...] + (index < extra[None, ...])
    w = np.asarray(weights, dtype=float).reshape(
        (count,) + (1,) * totals.ndim
    )
    scale = float(sum(weights))
    # The per-device floors are integer-valued floats, so this sum is
    # exact regardless of accumulation order.
    shards = np.floor(totals[None, ...] * w / scale)
    remaining = totals - shards.sum(axis=0)
    for _ in range(count + 1):
        active = remaining > 0
        if not np.any(active):
            break
        finish = (shards + 1.0) / w
        pick = np.argmin(finish, axis=0)
        increment = np.zeros_like(shards)
        np.put_along_axis(increment, pick[None, ...], 1.0, axis=0)
        shards = shards + increment * active[None, ...]
        remaining = remaining - active
    return shards


def _word_shards_grid(
    words: np.ndarray, weights: Sequence[float]
) -> np.ndarray:
    """Vectorized :meth:`TopologyCostModel._word_shards` over a grid."""
    words = np.asarray(words, dtype=float)
    count = len(weights)
    if _equal_weights(weights):
        fractional = np.broadcast_to(
            words / count, (count,) + words.shape
        )
    else:
        w = np.asarray(weights, dtype=float).reshape(
            (count,) + (1,) * words.ndim
        )
        fractional = words[None, ...] * w / float(sum(weights))
    integral = _plan_shards_grid(words, weights)
    whole = (words == np.floor(words))[None, ...]
    return np.where(whole, integral, fractional)


def topology_cost_batch(
    batch: MetricsBatch,
    machine: ATGPUMachine,
    parameters: CostParameters,
    occupancy: Optional[OccupancyModel],
    topology: Topology,
    planner: str = "load-aware",
) -> np.ndarray:
    """Vector form of :func:`topology_gpu_cost`.

    Uniform topologies take the
    :func:`~repro.core.batch.sharded_cost_batch` fast path, which prices
    device 0's ceiling shards directly; every other fleet prices each
    device's shard grids and gathers the per-round straggler components
    with a first-maximum ``argmax``.  Both paths follow the scalar
    model's operand order exactly, so both are bit for bit against
    :func:`topology_gpu_cost`.
    """
    if occupancy is None:
        raise ValueError(
            "topology GPU-cost requires an OccupancyModel (the "
            "per-device wave count of Expression 2)"
        )
    if topology.is_uniform:
        link = topology.host_link(topology.sockets[0])
        return sharded_cost_batch(
            batch, machine, parameters, occupancy,
            devices=topology.num_devices, contention=link.contention,
        )
    model = TopologyCostModel(
        machine, parameters, occupancy, topology, planner=planner
    )
    batch.validate_against(machine)
    for mach in {mach for mach, _, _ in model.resolutions}:
        if mach != machine:
            batch.validate_against(mach)
    count = topology.num_devices
    weights = model.plan_weights
    block_shards = _plan_shards_grid(batch.thread_blocks, weights)
    in_shards = _word_shards_grid(batch.inward_words, weights)
    out_shards = _word_shards_grid(batch.outward_words, weights)
    shape = (count,) + batch.thread_blocks.shape
    inward = np.empty(shape)
    outward = np.empty(shape)
    compute = np.empty(shape)
    io = np.empty(shape)
    for device in range(count):
        mach, params, occ = model.resolutions[device]
        alpha, beta, contention, members, covers_all = (
            model.device_links[device]
        )
        if len(members) == 1:
            in_stream = in_shards[device]
            out_stream = out_shards[device]
        else:
            if covers_all:
                in_link = batch.inward_words
                out_link = batch.outward_words
            else:
                in_link = np.zeros_like(batch.inward_words)
                out_link = np.zeros_like(batch.outward_words)
                for member in members:
                    in_link = in_link + in_shards[member]
                    out_link = out_link + out_shards[member]
            in_stream = contended_streaming(
                in_link, in_shards[device], contention
            )
            out_stream = contended_streaming(
                out_link, out_shards[device], contention
            )
        inward[device] = (
            batch.inward_transactions * alpha + in_stream * beta
        )
        outward[device] = (
            batch.outward_transactions * alpha + out_stream * beta
        )
        # Zero-block cells price to exact zeros (zero waves, zero I/O
        # share), matching the scalar model's idle-device fast path.
        ell = blocks_per_multiprocessor_grid(
            mach.M, batch.shared_words_per_mp, occ.hardware_block_limit
        )
        waves = wave_count_grid(block_shards[device], occ.physical_mps, ell)
        compute[device] = waves * batch.time / params.gamma
        io_share = block_shards[device] / batch.thread_blocks
        io[device] = (
            params.lam * batch.io_blocks * io_share / params.gamma
        )
    totals = (inward + outward) + (compute + io)
    straggler = np.argmax(totals, axis=0)

    def _gather(component: np.ndarray) -> np.ndarray:
        return np.take_along_axis(
            component, straggler[None, ...], axis=0
        )[0]

    inward_s = _gather(inward)
    outward_s = _gather(outward)
    compute_s = _gather(compute)
    io_s = _gather(io)
    p2p = topology.p2p_link
    if p2p is not None and count > 1:
        alpha_p = p2p.alpha if p2p.alpha is not None else parameters.alpha
        beta_p = p2p.beta if p2p.beta is not None else parameters.beta
        steps = math.ceil(math.log2(count))
        shuffle = steps * (alpha_p + out_shards.max(axis=0) * beta_p)
        outward_s = np.where(
            batch.outward_words > 0, outward_s + shuffle, outward_s
        )
    sync = parameters.sigma * batch.mask
    breakdown = BatchBreakdown(
        inward_transfer=_column_sum(inward_s),
        outward_transfer=_column_sum(outward_s),
        compute=_column_sum(compute_s),
        io=_column_sum(io_s),
        synchronisation=_column_sum(sync),
    )
    return breakdown.total
