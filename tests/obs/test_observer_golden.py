"""Golden digests of every observer's output.

The tracer and the lineage tracker watch the same message transitions.
Whatever wiring carries those transitions to them, what they record
must not change by one byte: each digest below is the sha256 of an
observer export captured before the observers shared a hook.  A drift
in an event's timestamp, node, detail fields or detail order, or in a
lineage span's boundaries or causal parents, changes a digest.

Regenerate (only for a change that is *meant* to alter observer
output, and say why in CHANGES.md) with::

    PYTHONPATH=src python tests/obs/test_observer_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.collectives.engine import run_nic_collective
from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.fabric import Fabric
from repro.network.topology import Mesh2D
from repro.obs.breakdown import write_lineage
from repro.obs.chrome import write_chrome_trace
from repro.obs.lineage import DIVERT_PARK, PHASE_DIVERT, LineageTracker
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import Tracer
from repro.programs.matmul import (
    DRIVER_SELF_SLOT,
    build_block_codeblock,
    build_driver_codeblock,
    run_matmul,
)
from repro.tam.runtime import TamMachine
from repro.tenancy import make_tenants
from repro.tenancy import workload as tenancy_workload

GOLDEN = {
    "hotspot_chrome": "a7e65084bc7bd0551bfca4682cc5c2e4f15bb2cb4ad43edb2c1f8c57fa25e16a",
    "hotspot_lineage": "86f3c15db41abf55cea7fbe845708bd3f8e86a6c8f9b1b59169901270ebf4f04",
    "matmul_events_codegen": "0d58071d160ca866cc83a8514214f410817229710f9a2f5047ff4a78d99775cd",
    "matmul_events_reference": "0d58071d160ca866cc83a8514214f410817229710f9a2f5047ff4a78d99775cd",
    "tam_lineage_codegen": "11739bb46f1a1cde8cc218e45685adaaf7ec218a452b2d6bb9dca118699a570a",
    "tam_lineage_reference": "11739bb46f1a1cde8cc218e45685adaaf7ec218a452b2d6bb9dca118699a570a",
    "barrier_lineage": "fc3c1348424bb6ba71b82cddfe8ca5ea28eeb81a1748129d3b4ef6bc4da9e395",
    "multitenant_lineage": "e054b5f54d9725cea46fd12d77aa7c2727ce9c4925823ad885030798f2e45900",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records_digest(tracker: LineageTracker) -> str:
    """Every record, every span, every parent edge."""
    records = [record.as_dict() for record in tracker.records]
    return _sha(json.dumps(records, sort_keys=True).encode())


def _events_digest(tracer: Tracer) -> str:
    """The full event stream; ``repr`` keeps each detail's field order."""
    stream = [(e.ts, e.kind, e.node, e.detail) for e in tracer]
    return _sha(repr(stream).encode())


def hotspot_digests() -> dict:
    tracer = Tracer(capacity=None)
    metrics = MetricsRecorder()
    lineage = LineageTracker(origin="hotspot")
    run_hotspot(
        hotspot_params(EvalOptions()), tracer=tracer, metrics=metrics, lineage=lineage
    )
    with tempfile.TemporaryDirectory() as tmp:
        chrome = Path(tmp) / "trace.json"
        lineage_path = Path(tmp) / "lineage.json"
        write_chrome_trace(chrome, tracer, metrics, lineage=lineage)
        write_lineage(str(lineage_path), lineage)
        return {
            "hotspot_chrome": _sha(chrome.read_bytes()),
            "hotspot_lineage": _sha(lineage_path.read_bytes()),
        }


def matmul_events_digest(backend: str) -> str:
    tracer = Tracer(capacity=None)
    run_matmul(8, 4, tracer=tracer, backend=backend)
    return _events_digest(tracer)


def tam_lineage_digest(backend: str) -> str:
    """An 8x8 blocked matmul on a 4-node TAM machine under lineage."""
    nb = 8 // 4
    tracker = LineageTracker(origin="tam")
    machine = TamMachine(4, backend=backend, lineage=tracker)
    machine.load(build_block_codeblock(nb, done_inlet=5))
    machine.load(build_driver_codeblock(nb))
    ref = machine.boot("mm_driver")
    machine.write_slot(ref, DRIVER_SELF_SLOT, ref)
    machine.run()
    assert tracker.records
    return _records_digest(tracker)


def barrier_lineage_digest() -> str:
    tracker = LineageTracker(origin="barrier")
    run_nic_collective("barrier", Mesh2D(4, 4), lineage=tracker)
    return _records_digest(tracker)


def multitenant_lineage_digest(monkeypatch) -> str:
    """A round-robin run whose tenant switches park residents."""
    tracker = LineageTracker(origin="round-robin")
    # The run builds its own fabric; hand it the tracker through the
    # fabric's public ``lineage=`` keyword.
    monkeypatch.setattr(
        tenancy_workload, "Fabric", functools.partial(Fabric, lineage=tracker)
    )
    run = tenancy_workload.MultiTenantRun(
        "round-robin", make_tenants(32, 16, 7), seed=7, gen_window=1500, horizon=2500
    )
    run.run()
    parked = [
        span
        for record in tracker.records
        for span in record.spans
        if span.phase == PHASE_DIVERT and span.detail["reason"] == DIVERT_PARK
    ]
    assert parked, "the run must exercise resident parking"
    return _records_digest(tracker)


def test_hotspot_exports():
    digests = hotspot_digests()
    assert digests["hotspot_chrome"] == GOLDEN["hotspot_chrome"]
    assert digests["hotspot_lineage"] == GOLDEN["hotspot_lineage"]


@pytest.mark.parametrize("backend", TamMachine.BACKENDS)
def test_traced_matmul_event_stream(backend):
    assert matmul_events_digest(backend) == GOLDEN[f"matmul_events_{backend}"]


@pytest.mark.parametrize("backend", TamMachine.BACKENDS)
def test_tam_matmul_lineage(backend):
    assert tam_lineage_digest(backend) == GOLDEN[f"tam_lineage_{backend}"]


def test_barrier_lineage():
    assert barrier_lineage_digest() == GOLDEN["barrier_lineage"]


def test_multitenant_parking_lineage(monkeypatch):
    assert multitenant_lineage_digest(monkeypatch) == GOLDEN["multitenant_lineage"]


if __name__ == "__main__":
    digests = dict(hotspot_digests())
    for backend in TamMachine.BACKENDS:
        digests[f"matmul_events_{backend}"] = matmul_events_digest(backend)
        digests[f"tam_lineage_{backend}"] = tam_lineage_digest(backend)
    digests["barrier_lineage"] = barrier_lineage_digest()
    with pytest.MonkeyPatch.context() as patch:
        digests["multitenant_lineage"] = multitenant_lineage_digest(patch)
    print(json.dumps(digests, indent=4, sort_keys=True))
