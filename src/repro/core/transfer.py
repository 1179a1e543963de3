"""Host ↔ device data-transfer cost model.

Section III of the paper adopts the linear latency model of Boyer et al.
("Improving GPU performance prediction with data transfer modeling",
IPDPSW 2013): a transfer of ``n`` words issued as ``n̂`` transactions costs

    ``T = n̂·α + n·β``

where ``α`` is the fixed per-transaction overhead (driver call, DMA setup,
pinning of pageable memory, ...) and ``β`` is the per-word streaming cost
(the inverse of the effective interconnect bandwidth).  The per-round inward
and outward costs are ``T_I(i) = Î_i·α + I_i·β`` and
``T_O(i) = Ô_i·α + O_i·β``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.core.metrics import RoundMetrics
from repro.utils.validation import (
    ensure_non_negative,
    ensure_non_negative_int,
    ensure_positive_int,
)


class TransferDirection(enum.Enum):
    """Direction of a host↔device transfer."""

    HOST_TO_DEVICE = "inward"
    DEVICE_TO_HOST = "outward"


@dataclass(frozen=True)
class BoyerTransferModel:
    """The linear transfer-cost model ``T = transactions·α + words·β``.

    Parameters
    ----------
    alpha:
        Per-transaction fixed overhead.  Units are whatever cost unit the
        surrounding :class:`~repro.core.cost.CostParameters` uses (the paper
        keeps the cost function unitless; the simulator uses seconds).
    beta:
        Per-word streaming cost (inverse effective bandwidth).
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        ensure_non_negative(self.alpha, "alpha")
        ensure_non_negative(self.beta, "beta")

    def cost(self, words: float, transactions: int = 1) -> float:
        """Cost of moving ``words`` words in ``transactions`` transactions."""
        ensure_non_negative(words, "words")
        ensure_non_negative_int(transactions, "transactions")
        if words > 0 and transactions == 0:
            raise ValueError("moving a positive number of words requires >= 1 transaction")
        return transactions * self.alpha + words * self.beta

    def inward_cost(self, metrics: RoundMetrics) -> float:
        """``T_I(i) = Î_i·α + I_i·β`` for one round."""
        return self.cost(metrics.inward_words, metrics.inward_transactions)

    def outward_cost(self, metrics: RoundMetrics) -> float:
        """``T_O(i) = Ô_i·α + O_i·β`` for one round."""
        return self.cost(metrics.outward_words, metrics.outward_transactions)

    def round_cost(self, metrics: RoundMetrics) -> float:
        """Total transfer cost of one round, ``T_I(i) + T_O(i)``."""
        return self.inward_cost(metrics) + self.outward_cost(metrics)

    def effective_bandwidth(self, words: float, transactions: int = 1) -> float:
        """Achieved words-per-cost-unit for a transfer of ``words`` words.

        Illustrates the familiar small-transfer penalty: as ``words`` grows
        the effective bandwidth approaches ``1/β``; for small transfers it is
        dominated by ``α``.
        """
        if words <= 0:
            raise ValueError("effective bandwidth requires words > 0")
        return words / self.cost(words, transactions)


@dataclass(frozen=True)
class OverlappedTransferModel:
    """Chunked, double-buffered variant of the Boyer transfer model.

    Real pipelines split a round's data into ``chunks`` pieces and stream
    them: while chunk ``c`` computes, chunk ``c+1`` is copied in and chunk
    ``c-1`` is copied out, so transfer time hides behind kernel time
    (CrystalGPU-style double buffering; ``chunks=2`` is the classic double
    buffer, larger values model deeper pipelines).

    The per-round cost is the makespan of a three-stage linear pipeline
    (inward copy → kernel → outward copy) over ``chunks`` equal chunks, each
    stage on its own engine::

        T_I/C + t_k/C + T_O/C + (C - 1)·max(T_I, t_k, T_O)/C

    where ``T_I = C·Î·α + I·β`` and ``T_O = C·Ô·α + O·β`` are the *chunked*
    stage totals (every transaction splits into ``C`` smaller ones, so the
    fixed overhead ``α`` is paid ``C`` times per logical transfer) and
    ``t_k`` is the round's kernel-side cost supplied by the caller.  The
    makespan always satisfies ``max(stages) ≤ cost ≤ sum(stages)``: overlap
    can hide everything but the slowest stage, never more.  With
    ``chunks=1`` the cost degenerates to the serial ``T_I + t_k + T_O``.
    """

    alpha: float
    beta: float
    chunks: int = 2

    def __post_init__(self) -> None:
        ensure_non_negative(self.alpha, "alpha")
        ensure_non_negative(self.beta, "beta")
        ensure_positive_int(self.chunks, "chunks")

    @property
    def serial_model(self) -> BoyerTransferModel:
        """The underlying serial Boyer model (same ``α``/``β``, no chunking)."""
        return BoyerTransferModel(alpha=self.alpha, beta=self.beta)

    # ------------------------------------------------------------------ #
    # Stage costs
    # ------------------------------------------------------------------ #
    def chunked_inward_cost(self, metrics: RoundMetrics) -> float:
        """Total inward stage cost with every transaction split into chunks."""
        return self.serial_model.cost(
            metrics.inward_words, self.chunks * metrics.inward_transactions
        )

    def chunked_outward_cost(self, metrics: RoundMetrics) -> float:
        """Total outward stage cost with every transaction split into chunks."""
        return self.serial_model.cost(
            metrics.outward_words, self.chunks * metrics.outward_transactions
        )

    def stage_costs(
        self, metrics: RoundMetrics, kernel_cost: float
    ) -> Tuple[float, float, float]:
        """The three chunked stage totals ``(T_I, t_k, T_O)`` of one round."""
        ensure_non_negative(kernel_cost, "kernel_cost")
        return (
            self.chunked_inward_cost(metrics),
            kernel_cost,
            self.chunked_outward_cost(metrics),
        )

    # ------------------------------------------------------------------ #
    # Overlapped round cost
    # ------------------------------------------------------------------ #
    def round_cost(self, metrics: RoundMetrics, kernel_cost: float) -> float:
        """Overlapped cost of one round (pipeline makespan, see class docs)."""
        stages = self.stage_costs(metrics, kernel_cost)
        total = sum(stages)
        bottleneck = max(stages)
        c = self.chunks
        return total / c + (c - 1) * bottleneck / c

    def serial_round_cost(self, metrics: RoundMetrics, kernel_cost: float) -> float:
        """The un-overlapped comparison cost ``T_I + t_k + T_O`` (unchunked)."""
        serial = self.serial_model
        return (
            serial.inward_cost(metrics)
            + float(kernel_cost)
            + serial.outward_cost(metrics)
        )

    def overlap_saving(self, metrics: RoundMetrics, kernel_cost: float) -> float:
        """Serial cost minus overlapped cost for one round (can be negative:
        chunking pays ``α`` per extra transaction, which deep pipelines may
        not win back on rounds with little to hide)."""
        return self.serial_round_cost(metrics, kernel_cost) - self.round_cost(
            metrics, kernel_cost
        )
