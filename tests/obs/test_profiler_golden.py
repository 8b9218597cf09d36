"""Golden digests of the simulation profiler's output.

Each digest is the sha256 of ``SimProfiler.to_dict(include_samples=True)``
with the wall-clock ``seconds`` fields dropped — everything the
profiler attributes that does not depend on the host: serviced ticks,
timed wakes, utilization, kernel cycles, run counts, registry counters
and the sampled tick series.  Three workloads cover the three ways a
profile is filled:

* the flow-control hot-spot with ``sample_interval=64`` (kernel rows,
  timed wakes, the sampled counter track);
* a profiled :class:`~repro.api.Cluster` run whose machine sleeps
  between pulses of traffic, so the kernel skips idle cycles;
* ``run_matmul(8, 4)`` on each TAM backend (``tam.node<N>`` rows and the
  folded TAM statistics).

Regenerate (only for a change that is *meant* to alter profiler output,
and say why in CHANGES.md) with::

    PYTHONPATH=src python tests/obs/test_profiler_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.cluster import Cluster
from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.topology import Mesh2D
from repro.node.handlers import build_write_request
from repro.obs.profiler import SimProfiler
from repro.programs.matmul import run_matmul
from repro.sim import SimComponent
from repro.tam.runtime import TamMachine

GOLDEN = {
    "hotspot_sampled": "58fe95dc9c2c6ceb02dda69295581d501a11e01ac864219625b105a4ceb52822",
    "cluster_idle_skip": "f30519565274e90c3c0ff7aff003ceb863e245aa8894fec3eeb608c8cb5a43a9",
    "matmul_codegen": "00389000beded6f2db51cc1eaddd9baf01c6beb243d14943ecb0cd6e1a1cd02e",
    "matmul_reference": "00389000beded6f2db51cc1eaddd9baf01c6beb243d14943ecb0cd6e1a1cd02e",
}


def profile_digest(profiler: SimProfiler) -> str:
    """sha256 of the profile with the volatile ``seconds`` fields dropped."""
    profile = profiler.to_dict(include_samples=True)
    profile["components"] = {
        name: {k: v for k, v in entry.items() if k != "seconds"}
        for name, entry in profile["components"].items()
    }
    return hashlib.sha256(json.dumps(profile, sort_keys=True).encode()).hexdigest()


class _Pulse(SimComponent):
    """Posts one write every ``gap`` cycles and sleeps the machine between.

    While a write is in flight the pulse polls every cycle; once the
    fabric and nodes are quiescent it puts them to sleep and re-arms
    ``gap`` cycles ahead, so nothing is awake across the gap.
    """

    name = "pulse"

    def __init__(self, cluster: Cluster, pulses: int, gap: int) -> None:
        self.cluster = cluster
        self.pulses = pulses
        self.gap = gap
        self.sent = 0
        self.posting = False
        self.handle = None

    def _machine(self):
        return [h for h in self.cluster.kernel.handles if h.component is not self]

    def tick(self, cycle: int) -> None:
        machine = self._machine()
        if not all(h.component.quiescent() for h in machine):
            self.handle.wake_at(cycle + 1)
            return
        if self.posting:
            n = self.cluster.n_nodes
            source, target = self.sent % n, (3 * self.sent + 1) % n
            node = self.cluster.node(source)
            message = build_write_request(target, 0x100 + 4 * self.sent, self.sent)
            for index, word in enumerate(message.words):
                node.interface.write_output(index, word)
            node.send_with_retry(message.mtype)
            for handle in machine:
                handle.wake()
            self.sent += 1
            self.posting = False
            self.handle.wake_at(cycle + 1)
            return
        for handle in machine:
            handle.sleep()
        if self.sent < self.pulses:
            self.posting = True
            self.handle.wake_at(cycle + self.gap)
        else:
            self.handle.sleep()

    def quiescent(self) -> bool:
        return self.sent == self.pulses and not self.posting


def hotspot_digest() -> str:
    profiler = SimProfiler(sample_interval=64)
    run_hotspot(hotspot_params(EvalOptions()), profiler=profiler)
    return profile_digest(profiler)


def cluster_digest() -> str:
    profiler = SimProfiler()
    cluster = Cluster(Mesh2D(2, 2), profiler=profiler)
    pulse = _Pulse(cluster, pulses=6, gap=500)
    pulse.handle = cluster.add_component(pulse)
    cycles = cluster.run(max_rounds=10_000)
    assert pulse.sent == 6
    # Most of the run is idle gap: far more cycles than any row ticked.
    assert cycles > 6 * 500 > max(row.ticks for row in profiler.kernel_components)
    return profile_digest(profiler)


def matmul_digest(backend: str) -> str:
    profiler = SimProfiler()
    run_matmul(8, 4, profiler=profiler, backend=backend)
    return profile_digest(profiler)


def test_hotspot_sampled_profile():
    assert hotspot_digest() == GOLDEN["hotspot_sampled"]


def test_idle_skipping_cluster_profile():
    assert cluster_digest() == GOLDEN["cluster_idle_skip"]


@pytest.mark.parametrize("backend", TamMachine.BACKENDS)
def test_matmul_profile(backend):
    assert matmul_digest(backend) == GOLDEN[f"matmul_{backend}"]


if __name__ == "__main__":
    digests = {
        "hotspot_sampled": hotspot_digest(),
        "cluster_idle_skip": cluster_digest(),
    }
    for backend in TamMachine.BACKENDS:
        digests[f"matmul_{backend}"] = matmul_digest(backend)
    print(json.dumps(digests, indent=4))
