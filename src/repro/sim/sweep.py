"""Turn-based service policies: the kernel's TAM schedulers.

The TAM runtime's unit of time is the *productive turn* (one thread run
or one message processed), not the cycle, so it schedules on the
policies here rather than on :class:`~repro.sim.kernel.SimKernel`'s
cycle loop.  The contract:

* states are serviced in ascending index order, sweep after sweep;
* each state performs at most one unit of work per sweep;
* a run ends when a full sweep finds no work anywhere;
* ``max_turns`` bounds productive turns exactly: a run needing exactly
  ``max_turns`` turns succeeds, one needing more raises ``stall()``
  before executing the excess turn.  (The legacy loops charged the
  bound *after* executing a turn, silently permitting ``max_turns + 1``
  productive turns.)

:class:`ReferenceSweep` scans every state every sweep — the executable
specification.  :class:`ActiveSweep` holds the per-state activity flags
with which the TAM codegen loop
(:meth:`~repro.tam.runtime.TamMachine._run_codegen_fused`) reproduces
the identical service order without scanning idle states: the flag
arrays carry a ``True`` sentinel at index ``n`` so the sweep scan
(``list.index``) always terminates without an exception, and a state
activated mid-sweep joins the current sweep if the sweep has not yet
passed it (the reference policy would still reach it) and the next
sweep otherwise.  The TAM backend-matrix and golden-equivalence tests
pin the two turn for turn.
"""

from __future__ import annotations

from typing import Callable, List, Sequence


class ReferenceSweep:
    """Scan-all-states scheduler: the executable specification."""

    def run(
        self,
        states: Sequence,
        has_work: Callable[[object], object],
        do_one: Callable[[object], None],
        max_turns: int,
        stall: Callable[[], BaseException],
    ) -> int:
        """Service ``states`` to quiescence; returns productive turns.

        ``has_work(state)`` is truthy while the state can perform a unit
        of work; ``do_one(state)`` performs exactly one.
        """
        turns = 0
        while True:
            progressed = False
            for state in states:
                if not has_work(state):
                    continue
                if turns >= max_turns:
                    raise stall()
                do_one(state)
                progressed = True
                turns += 1
            if not progressed:
                return turns


class ActiveSweep:
    """Flag arrays for the reference service order without idle scans.

    One instance lives per machine: ``in_current`` / ``in_next`` /
    ``sweep_pos`` are public on purpose — the machine's message-post
    path pokes them directly (the hottest operation in a TAM run), and
    that attribute contract is part of the policy's API.  ``active`` is
    True only while a run is in progress, which posting code uses as
    the signal that activity flags need maintaining at all.
    """

    __slots__ = ("in_current", "in_next", "sweep_pos", "active")

    def __init__(self, n: int) -> None:
        # Sentinel True at index n terminates the list.index scans.
        self.in_current: List[bool] = [False] * n + [True]
        self.in_next: List[bool] = [False] * n + [True]
        self.sweep_pos = -1
        self.active = False
