"""The turn policy: service order and exact turn bounds.

The synthetic states here model the TAM shape (a work stack that can
spawn work on other states) without any TAM machinery, so the policy
contract is pinned independently of the runtime that uses it.  The TAM
codegen loop realizes the same order over
:class:`~repro.sim.sweep.ActiveSweep`'s flag arrays; it is pinned
against the reference backend turn for turn by
``tests/tam/test_backend_matrix.py`` and ``tests/sim/test_determinism.py``,
and its exact bound by ``TestTurnBoundExactness`` and the ``spin`` test in
``tests/tam/test_runtime_errors.py``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import ReferenceSweep

POLICIES = [pytest.param(ReferenceSweep, id="reference")]


class State:
    """A work queue that can push follow-on work onto other states."""

    def __init__(self, index):
        self.index = index
        self.work = []  # each item: list of (target_index, payload) spawns
        self.serviced = []


class Harness:
    """Drives N states under a policy, recording service order."""

    def __init__(self, n):
        self.states = [State(i) for i in range(n)]
        self.order = []

    def spawn(self, index, item):
        self.states[index].work.append(item)

    def _do_one(self, state):
        spawns = state.work.pop(0)
        self.order.append(state.index)
        state.serviced.append(spawns)
        for target, item in spawns:
            self.states[target].work.append(item)

    def run(self, policy, max_turns=1000):
        return policy().run(
            self.states,
            has_work=lambda state: state.work,
            do_one=self._do_one,
            max_turns=max_turns,
            stall=lambda: SimulationError("turn bound exceeded"),
        )


def cascade(harness):
    """State 0 fans out to 2 and 1; 1 then feeds 3; 3 re-arms 0."""
    harness.spawn(0, [(2, []), (1, [(3, [])])])
    harness.spawn(1, [])
    harness.spawn(3, [(0, [])])


class TestEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_service_order(self, policy):
        harness = Harness(4)
        cascade(harness)
        turns = harness.run(policy)
        # Ascending index order, sweep by sweep, one unit per state per
        # sweep: a spawn onto a state the sweep has not passed yet (2
        # from state 0, 3 from state 1 in the second sweep) is served in
        # the same sweep, one onto a passed state (0 from state 3) in
        # the next.
        assert harness.order == [0, 1, 2, 3, 0, 1, 3]
        assert turns == len(harness.order)


class TestTurnBound:
    """``max_turns`` is exact: K turns within a bound of K succeed."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_exact_bound_succeeds(self, policy):
        probe = Harness(4)
        cascade(probe)
        needed = probe.run(policy)
        harness = Harness(4)
        cascade(harness)
        assert harness.run(policy, max_turns=needed) == needed

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_below_bound_raises(self, policy):
        probe = Harness(4)
        cascade(probe)
        needed = probe.run(policy)
        harness = Harness(4)
        cascade(harness)
        with pytest.raises(SimulationError):
            harness.run(policy, max_turns=needed - 1)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_runaway_work_raises(self, policy):
        harness = Harness(2)
        harness.spawn(0, [(0, [])])
        original = harness._do_one

        def do_one(state):
            # State 0 perpetually re-arms itself: never quiesces.
            original(state)
            state.work.append([(0, [])])

        harness._do_one = do_one
        with pytest.raises(SimulationError):
            harness.run(policy, max_turns=50)
