"""Golden equivalence: the codegen backend IS the reference path, bit for bit.

The generated-code backend (:mod:`repro.tam.codegen`, the default) and
its active-node scheduler are pure performance work — every observable
quantity must be identical to the reference interpreter's.  That is a
strong property: the message-outcome mix (full/empty/deferred
presence-bit reads) depends on the exact interleaving of threads and
messages, so these tests fail if the codegen scheduler services even one
node out of order.

Each program runs once per path at small scale and the *entire*
statistics object is compared field for field, together with the
program-level results (matmul C values, gamteb tallies, queens count)
and the productive-turn count.
"""

import pytest

from repro.programs.gamteb import run_gamteb
from repro.programs.matmul import run_matmul
from repro.programs.queens import run_queens
from repro.tam.stats import TamStats


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


@pytest.mark.parametrize("nodes", [1, 5])
def test_matmul_paths_identical(nodes):
    codegen = run_matmul(n=8, nodes=nodes)
    reference = run_matmul(n=8, nodes=nodes, backend="reference")
    assert stats_as_dict(codegen.stats) == stats_as_dict(reference.stats)
    assert codegen.total == reference.total
    assert (
        codegen.machine.turns_executed == reference.machine.turns_executed
    )


@pytest.mark.parametrize("nodes", [1, 5])
def test_gamteb_paths_identical(nodes):
    codegen = run_gamteb(n_photons=8, nodes=nodes)
    reference = run_gamteb(n_photons=8, nodes=nodes, backend="reference")
    assert stats_as_dict(codegen.stats) == stats_as_dict(reference.stats)
    assert (codegen.absorbed, codegen.escaped, codegen.photons_traced) == (
        reference.absorbed,
        reference.escaped,
        reference.photons_traced,
    )
    assert (
        codegen.machine.turns_executed == reference.machine.turns_executed
    )


@pytest.mark.parametrize("nodes", [1, 5])
def test_queens_paths_identical(nodes):
    codegen = run_queens(n=5, nodes=nodes)
    reference = run_queens(n=5, nodes=nodes, backend="reference")
    assert stats_as_dict(codegen.stats) == stats_as_dict(reference.stats)
    assert codegen.solutions == reference.solutions
    assert (
        codegen.machine.turns_executed == reference.machine.turns_executed
    )


def test_istructure_outcome_mix_is_order_sensitive_and_matches():
    """The subtlest equivalence: presence-bit outcomes match exactly.

    A pread that arrives before the pwrite is counted empty/deferred; one
    that arrives after is counted full.  Identical counts across paths
    therefore certify identical scheduling order, not just identical
    totals.
    """
    codegen = run_matmul(n=12, nodes=7)
    reference = run_matmul(n=12, nodes=7, backend="reference")
    f, r = codegen.stats.messages, reference.stats.messages
    assert (f.preads_full, f.preads_empty, f.preads_deferred) == (
        r.preads_full,
        r.preads_empty,
        r.preads_deferred,
    )
    assert (f.pwrites_empty, f.pwrites_deferred) == (
        r.pwrites_empty,
        r.pwrites_deferred,
    )
    # Both orderings genuinely occur at this scale, so the equality above
    # is discriminating.
    assert f.preads_full > 0
    assert f.preads_empty + f.preads_deferred > 0
