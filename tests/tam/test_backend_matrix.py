"""The backend equivalence matrix: reference = codegen.

:mod:`tests.tam.test_golden_equivalence` pins the default (codegen)
backend to the reference interpreter at several machine sizes; this
module pins the two *as a matrix* — every paper program on every
backend, compared turn-for-turn on the full statistics object, the
program-level results, and the activation frames themselves (through
``frame_view``, so the flat codegen frame is compared slot by slot
against the reference ``Frame``).

Also here: repeat-run determinism for the codegen machine (the
generated-code + scheduler pipeline has no hidden iteration-order
dependence) and error parity (a malformed program fails with the same
exception and message on every backend).
"""

import pytest

from repro.errors import TamError
from repro.programs.gamteb import run_gamteb
from repro.programs.matmul import run_matmul
from repro.programs.queens import run_queens
from repro.tam.codeblock import Codeblock
from repro.tam.instructions import SelfInstr, SendInstr, StopInstr
from repro.tam.runtime import TamMachine
from repro.tam.stats import TamStats

BACKENDS = TamMachine.BACKENDS


def stats_as_dict(stats: TamStats) -> dict:
    """Every field of TamStats, flattened for exact comparison."""
    return {
        "instructions": {
            kind.name: count for kind, count in stats.instructions.items()
        },
        "messages": stats.messages.as_dict(),
        "threads_run": stats.threads_run,
        "frames_allocated": stats.frames_allocated,
        "istructures_allocated": stats.istructures_allocated,
    }

PROGRAMS = {
    "matmul": lambda backend: run_matmul(n=8, nodes=5, backend=backend),
    "gamteb": lambda backend: run_gamteb(n_photons=6, nodes=5, backend=backend),
    "queens": lambda backend: run_queens(n=5, nodes=5, backend=backend),
}


def result_fingerprint(name, result):
    if name == "matmul":
        return result.total
    if name == "gamteb":
        return (result.absorbed, result.escaped, result.photons_traced)
    return result.solutions


@pytest.fixture(scope="module")
def matrix():
    """Every program on every backend, executed once for the module."""
    return {
        name: {backend: runner(backend) for backend in BACKENDS}
        for name, runner in PROGRAMS.items()
    }


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("backend", ["codegen"])
def test_stats_match_reference(matrix, program, backend):
    reference = matrix[program]["reference"]
    other = matrix[program][backend]
    assert stats_as_dict(other.stats) == stats_as_dict(reference.stats)
    assert (
        other.machine.turns_executed == reference.machine.turns_executed
    )


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("backend", ["codegen"])
def test_results_match_reference(matrix, program, backend):
    assert result_fingerprint(program, matrix[program][backend]) == (
        result_fingerprint(program, matrix[program]["reference"])
    )


def test_frame_views_match_across_backends():
    """The driver activation is slot-identical on every backend.

    ``frame_view`` exposes the codegen backend's flat frame through the
    same ``slots`` surface as the reference ``Frame``, so the final
    frame contents — results, loop indices, counters — compare
    directly.
    """
    from repro.programs.queens import build_driver, build_worker

    frames = {}
    for backend in BACKENDS:
        machine = TamMachine(5, backend=backend)
        machine.load(build_worker(5))
        machine.load(build_driver())
        ref = machine.boot("queens_driver")
        machine.run()
        frames[backend] = machine.frame_view(ref)
    reference = frames["reference"]
    view = frames["codegen"]
    assert list(view.slots) == list(reference.slots)
    for counter in ("kid_ready", "root_done"):
        assert view.counter_value(counter) == reference.counter_value(counter)


def test_codegen_repeat_runs_are_deterministic():
    """Same program, same machine parameters, identical run every time."""
    baseline = run_matmul(n=8, nodes=5, backend="codegen")
    for _ in range(3):
        repeat = run_matmul(n=8, nodes=5, backend="codegen")
        assert stats_as_dict(repeat.stats) == stats_as_dict(baseline.stats)
        assert (
            repeat.machine.turns_executed
            == baseline.machine.turns_executed
        )
        assert repeat.total == baseline.total


def _missing_inlet_program():
    """A codeblock whose entry sends to an inlet that does not exist."""
    block = Codeblock("bad_send", frame_size=2)
    block.add_thread(
        "entry",
        [
            SelfInstr(0),
            SendInstr(frame_slot=0, inlet=9, values=()),
            StopInstr(),
        ],
    )
    block.set_entry("entry")
    return block


@pytest.mark.parametrize("backend", BACKENDS)
def test_missing_inlet_error_parity(backend):
    machine = TamMachine(2, backend=backend)
    machine.load(_missing_inlet_program())
    machine.boot("bad_send")
    with pytest.raises(TamError, match=r"'bad_send' has no inlet 9"):
        machine.run()


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_codeblock_error_parity(backend):
    machine = TamMachine(2, backend=backend)
    with pytest.raises(TamError, match=r"unknown codeblock"):
        machine.boot("nope")
