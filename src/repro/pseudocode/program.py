"""Programs and rounds of the ATGPU pseudocode.

A :class:`Round` follows the execution structure of Section II: data is
transferred from the host to device global memory, one or more kernels run
on the MPs, output data is transferred back to the host, and synchronisation
closes the round.  A :class:`Program` is an ordered list of rounds together
with its variable declarations and a parameter dictionary (e.g. the input
size ``n`` and the machine's ``b``), so the same program object can be both
statically analysed and executed on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.pseudocode.ast_nodes import (
    KernelLaunch,
    TransferIn,
    TransferOut,
)
from repro.pseudocode.variables import Scope, Variable


@dataclass
class Round:
    """One round: inward transfers, kernel launches, outward transfers, sync."""

    transfers_in: Tuple[TransferIn, ...] = ()
    launches: Tuple[KernelLaunch, ...] = ()
    transfers_out: Tuple[TransferOut, ...] = ()
    label: str = ""
    synchronise: bool = True

    def __post_init__(self) -> None:
        self.transfers_in = tuple(self.transfers_in)
        self.launches = tuple(self.launches)
        self.transfers_out = tuple(self.transfers_out)
        if not self.launches and not (self.transfers_in or self.transfers_out):
            raise ValueError("a round must contain at least one launch or transfer")

    # ------------------------------------------------------------------ #
    # Analytical helpers
    # ------------------------------------------------------------------ #
    def inward_words(self, params: Dict[str, float]) -> float:
        """``I_i`` for this round."""
        return sum(t.word_count(params) for t in self.transfers_in)

    def outward_words(self, params: Dict[str, float]) -> float:
        """``O_i`` for this round."""
        return sum(t.word_count(params) for t in self.transfers_out)

    @property
    def inward_transactions(self) -> int:
        """``Î_i`` -- one transaction per TransferIn statement."""
        return len(self.transfers_in)

    @property
    def outward_transactions(self) -> int:
        """``Ô_i``."""
        return len(self.transfers_out)

    def charged_inward_transactions(self, params: Dict[str, float]) -> int:
        """``Î_i`` as charged by the cost model: a statement moving no words
        at these parameters is a marker, which costs nothing (not even
        ``α``) and is not a transaction."""
        return sum(1 for t in self.transfers_in if t.word_count(params) > 0)

    def charged_outward_transactions(self, params: Dict[str, float]) -> int:
        """``Ô_i`` with zero-word marker statements excluded."""
        return sum(1 for t in self.transfers_out if t.word_count(params) > 0)

    def time(self, params: Dict[str, float]) -> float:
        """``t_i`` -- operations of the round's kernel launches."""
        return sum(launch.time(params) for launch in self.launches)

    def io_blocks(self, params: Dict[str, float]) -> float:
        """``q_i`` -- global-memory blocks accessed across all MPs."""
        return sum(launch.io_blocks(params) for launch in self.launches)

    def thread_blocks(self, params: Dict[str, float]) -> int:
        """``k_i`` -- the largest grid launched in the round."""
        if not self.launches:
            return 1
        return max(launch.grid(params) for launch in self.launches)

    def shared_words_per_block(self) -> int:
        """Largest per-block shared footprint of the round's launches."""
        if not self.launches:
            return 0
        return max(launch.shared_words_per_block() for launch in self.launches)


@dataclass
class Program:
    """A complete ATGPU pseudocode program.

    Parameters
    ----------
    name:
        Program name (used in reports).
    variables:
        Every variable the program references, of all three scopes.
    rounds:
        The rounds in execution order.
    params:
        Named scalar parameters (e.g. ``{"n": 1_000_000, "b": 32}``) that
        parameter-dependent node attributes resolve against.
    """

    name: str
    variables: Tuple[Variable, ...]
    rounds: Tuple[Round, ...]
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.variables = tuple(self.variables)
        self.rounds = tuple(self.rounds)
        if not self.rounds:
            raise ValueError("a program must have at least one round")
        names = [v.name for v in self.variables]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate variable declarations: {sorted(duplicates)}")

    # ------------------------------------------------------------------ #
    # Variable lookup
    # ------------------------------------------------------------------ #
    def variable(self, name: str) -> Variable:
        """Look up a declared variable by name."""
        for variable in self.variables:
            if variable.name == name:
                return variable
        raise KeyError(f"program {self.name!r} declares no variable named {name!r}")

    def declared(self, name: str) -> bool:
        """Whether ``name`` is declared."""
        return any(v.name == name for v in self.variables)

    def variables_in_scope(self, scope: Scope) -> Tuple[Variable, ...]:
        """All declared variables of one scope."""
        return tuple(v for v in self.variables if v.scope is scope)

    # ------------------------------------------------------------------ #
    # Space accounting
    # ------------------------------------------------------------------ #
    def global_words(self) -> int:
        """Total words of declared global variables (global-memory footprint)."""
        return sum(v.size for v in self.variables_in_scope(Scope.GLOBAL))

    def shared_words_per_mp(self) -> int:
        """Largest per-block shared-memory footprint over all rounds."""
        return max(r.shared_words_per_block() for r in self.rounds)

    @property
    def num_rounds(self) -> int:
        """``R``."""
        return len(self.rounds)
