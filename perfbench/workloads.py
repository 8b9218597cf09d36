"""The benchmark's four workloads.

Each workload is a function ``setup(seed)`` that builds the inputs one
seed determines and returns ``iteration(j)``: one full workload run on
rotation slot ``j`` (``0 <= j < ROTATIONS[name]``), returning
``(payload, events)``.  The payload holds
simulated outputs only (no host time), so its digest is a pure function
of the inputs; ``events`` counts the simulated messages the run retired.
An iteration raises when a simulated output fails its own check.

Heavy-tailed inputs make one seed's run cost differ from another's, so
the seeded workloads rotate through :data:`ROTATIONS` input sets derived
from the seed (slot 0 is the seed itself, e.g. the evaluation sections'
default population for seed 42); a run then averages over inputs
instead of tracking one draw.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.eval.multitenant import multitenant_params, run_policy
from repro.eval.netsweep import compute_netsweep, netsweep_params
from repro.exp.spec import EvalOptions
from repro.obs.breakdown import phase_breakdown, reconcile_lineage
from repro.obs.lineage import LineageTracker
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import Tracer
from repro.programs.matmul import run_matmul
from repro.programs.queens import run_queens
from repro.tenancy import make_tenants

Iteration = Callable[[int], Tuple[Dict, int]]

#: Input sets each workload rotates through.  ``tam-programs`` has
#: closed-form inputs; ``observed`` has four hot-spot corners.
ROTATIONS = {"tenant-serve": 8, "mesh-uniform": 8, "tam-programs": 1, "observed": 4}

# tenant-serve: the multitenant section's configuration over a shorter
# horizon (the section runs 16k cycles).
TENANT_HORIZON = 3200
TENANT_GEN_WINDOW = 2400

# mesh-uniform: the netsweep smoke grid with a shorter injection window
# (the section warms up 100 cycles and measures 300).
MESH_WARMUP = 40
MESH_MEASURE = 80

# tam-programs: blocked matmul (the paper's size is 100) and N-Queens.
MATMUL_N = 64
QUEENS_N = 7
TAM_NODES = 16

# observed: the hot-spot's hot node is a mesh corner (the four corners
# are mirror images under dimension-order routing), plus a traced matmul.
HOT_CORNERS = (0, 3, 12, 15)
TRACED_MATMUL_N = 40


def sub_seed(seed: int, j: int) -> int:
    """The seed of rotation slot ``j`` (slot 0 is ``seed`` itself)."""
    return seed + 7919 * j


class OutputError(Exception):
    """A simulated output failed the workload's own check."""


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise OutputError(what)


def tenant_serve(seed: int) -> Iteration:
    """512 heavy-tailed tenants on a 4x4 mesh under all three policies."""
    base = dict(
        multitenant_params(EvalOptions()),
        horizon=TENANT_HORIZON,
        gen_window=TENANT_GEN_WINDOW,
    )
    populations = [
        make_tenants(base["n_tenants"], base["width"] * base["height"], sub_seed(seed, j))
        for j in range(ROTATIONS["tenant-serve"])
    ]

    def iteration(j: int) -> Tuple[Dict, int]:
        params = dict(base, seed=sub_seed(seed, j))
        tenants = populations[j]
        runs = {name: run_policy(name, tenants, params) for name in params["schedulers"]}
        for name, run in runs.items():
            for row in run["tenant_table"]:
                _check(
                    row["generated"] == row["dispatched"] + row["censored"],
                    f"{name}: tenant {row['pin']} accounting does not close",
                )
        # Every generated message is carried to dispatch or to the horizon
        # (checked above); dispatch counts alone follow each policy's
        # starvation and the heavy-tailed draw, not the work simulated.
        return runs, sum(run["scheduled"] for run in runs.values())

    return iteration


def mesh_uniform(seed: int) -> Iteration:
    """Uniform traffic on an 8x8 mesh: 3 routing policies x 3 rates."""
    base = dict(
        netsweep_params(EvalOptions()),
        warmup_cycles=MESH_WARMUP,
        measure_cycles=MESH_MEASURE,
    )

    def iteration(j: int) -> Tuple[Dict, int]:
        payload = compute_netsweep(dict(base, seed=sub_seed(seed, j)))
        events = 0
        for curve in payload["curves"]:
            for point in curve["points"]:
                _check(point["accepted"] <= point["offered"], "accepted > offered")
                if point["drained"]:
                    _check(
                        point["total_retired"] == point["total_delivered"],
                        f"{curve['routing']} @ {point['offered_rate']}: "
                        "drained fabric retired != delivered",
                    )
                events += point["total_delivered"]
        return payload, events

    return iteration


def _tam_summary(result) -> Dict:
    return {
        "stats": result.stats.as_dict(),
        "turns": result.machine.turns_executed,
    }


def tam_programs(seed: int) -> Iteration:
    """Matmul and N-Queens on the default TAM backend, both verified.

    Their inputs are closed-form, so the seed does not change them.
    """

    def iteration(j: int) -> Tuple[Dict, int]:
        matmul = run_matmul(MATMUL_N, TAM_NODES, verify=True)
        queens = run_queens(QUEENS_N, TAM_NODES, verify=True)
        payload = {
            "matmul": dict(_tam_summary(matmul), total=matmul.total),
            "queens": dict(_tam_summary(queens), solutions=queens.solutions),
        }
        events = (
            matmul.stats.messages.total_messages + queens.stats.messages.total_messages
        )
        return payload, events

    return iteration


def observed(seed: int) -> Iteration:
    """The hot-spot with tracer, metrics and lineage, plus a traced matmul."""
    base = hotspot_params(EvalOptions())

    def iteration(j: int) -> Tuple[Dict, int]:
        params = dict(base, hot_node=HOT_CORNERS[sub_seed(seed, j) % len(HOT_CORNERS)])
        tracer = Tracer()
        metrics = MetricsRecorder()
        lineage = LineageTracker(origin="hotspot")
        hotspot = run_hotspot(params, tracer=tracer, metrics=metrics, lineage=lineage)
        hotspot["lineage"] = {
            "reconciliation": reconcile_lineage(lineage, require_complete=True),
            "breakdown": phase_breakdown(lineage),
        }
        hotspot["metrics"] = metrics.summaries()
        matmul_tracer = Tracer()
        matmul = run_matmul(TRACED_MATMUL_N, TAM_NODES, verify=True, tracer=matmul_tracer)
        payload = {
            "hotspot": hotspot,
            "matmul": dict(
                _tam_summary(matmul),
                total=matmul.total,
                trace_counts=dict(matmul_tracer.counts),
            ),
        }
        events = hotspot["delivered"] + matmul.stats.messages.total_messages
        return payload, events

    return iteration


WORKLOADS: Dict[str, Callable[[int], Iteration]] = {
    "tenant-serve": tenant_serve,
    "mesh-uniform": mesh_uniform,
    "tam-programs": tam_programs,
    "observed": observed,
}
