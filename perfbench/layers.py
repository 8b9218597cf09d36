"""Host-time attribution by layer, from the benchmark's side only.

:class:`LayerTrace` wraps the public entry points of each simulator
layer in timing spans while it is installed, and restores the original
methods when it is removed; the program under test carries no timing
code.  A span's *self* time is its duration minus the time covered by
the spans nested inside it, so the self times of all spans partition
the time the spans cover.  Whatever a traced run spends outside every
span is ``bench.unattributed_s``.

Spans, by layer (the metric is ``<span>_s`` unless noted):

* ``sim``: ``SimKernel.run`` (``sim.kernel_self_s``: the kernel loop
  itself) and the ticks of workload-harness components that belong to no
  other layer (``sim.harness_s``: the hot-spot's senders and receiver).
* ``network``: ``Fabric.step`` (``network.step_self_s``),
  ``RoutingPolicy.candidates`` of every policy, the occupancy queries
  ``Fabric.in_flight``/``pending``, ``Fabric`` construction,
  and the ticks of network-package components (the fabric's own tick,
  the synthetic-traffic source and sink).
* ``nic``: ``NetworkInterface.deliver``/``transmit``/``send``/
  ``send_gather``/``next`` and construction.  Cheaper calls
  (``can_accept``, ``would_divert``, register reads/writes) are charged
  to their caller.
* ``tenancy``: the scheduler policy's tick and ``on_divert`` hook, the
  arrival pump and node servers, ``MultiTenantRun`` construction, and
  the tenancy clock's tick.
* ``tam``: ``TamMachine`` construction, ``load`` and ``run``.
* ``obs``: ``Tracer.emit``, every ``LineageTracker`` hook, and
  ``MetricsRecorder.sample``/``crossing``.

Component ticks are wrapped per instance when ``SimKernel.run`` starts,
through ``SimKernel.handles``, so any component a workload registers is
attributed to the package that defines it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.network.fabric import Fabric
from repro.network.routing import AdaptiveRandom, DimensionOrder, EscapeVC
from repro.nic.interface import NetworkInterface
from repro.obs.breakdown import ReconciliationError
from repro.obs.lineage import LineageTracker
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import Tracer
from repro.sim.kernel import SimKernel
from repro.tam.runtime import TamMachine
from repro.tenancy.scheduler import TenantPolicy
from repro.tenancy.workload import MultiTenantRun

#: The layers a span belongs to, in report order.
LAYERS = ("sim", "network", "nic", "tenancy", "tam", "obs")

#: Largest share of a traced run's wall-clock allowed outside every span.
UNATTRIBUTED_TOLERANCE = 0.10

#: (class, method, span) for every wrapped method.
METHOD_SPANS: Tuple[Tuple[type, str, str], ...] = (
    (Fabric, "step", "network.step"),
    (Fabric, "in_flight", "network.occupancy"),
    (Fabric, "pending", "network.occupancy"),
    (DimensionOrder, "candidates", "network.routing"),
    (AdaptiveRandom, "candidates", "network.routing"),
    (EscapeVC, "candidates", "network.routing"),
    (NetworkInterface, "deliver", "nic.deliver"),
    (NetworkInterface, "transmit", "nic.transmit"),
    (NetworkInterface, "send", "nic.send"),
    (NetworkInterface, "send_gather", "nic.send"),
    (NetworkInterface, "next", "nic.next"),
    (TenantPolicy, "on_divert", "tenancy.divert"),
    (TamMachine, "load", "tam.load"),
    (TamMachine, "run", "tam.run"),
    (Tracer, "emit", "obs.tracer"),
    (MetricsRecorder, "sample", "obs.metrics"),
    (MetricsRecorder, "crossing", "obs.metrics"),
) + tuple(
    (LineageTracker, name, "obs.lineage")
    for name in vars(LineageTracker)
    if name.startswith(("on_", "tam_", "bind_", "begin_", "end_", "collective_"))
)

#: (class, span or None, registry key): constructors that are timed
#: (span) and/or whose instances are kept for the count metrics.
CONSTRUCTORS: Tuple[Tuple[type, Optional[str], str], ...] = (
    (Fabric, "network.build", "fabrics"),
    (NetworkInterface, "nic.build", "interfaces"),
    (MultiTenantRun, "tenancy.build", "tenancy_runs"),
    (TamMachine, "tam.build", "machines"),
    (Tracer, None, "tracers"),
    (LineageTracker, None, "lineage"),
)

#: Tick spans of tenancy components, by class name; other components
#: take ``<package>.tick`` (or ``sim.harness`` outside the layer packages).
TENANCY_TICKS = {"_ArrivalPump": "tenancy.pump", "_NodeServer": "tenancy.server"}


def tick_span(component: object) -> str:
    """The span a kernel component's tick is charged to."""
    if isinstance(component, TenantPolicy):
        return "tenancy.scheduler"
    cls = type(component)
    if cls.__name__ in TENANCY_TICKS and cls.__module__.startswith("repro.tenancy"):
        return TENANCY_TICKS[cls.__name__]
    parts = cls.__module__.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return f"{parts[1]}.tick"
    return "sim.harness"


class LayerTrace:
    """Self time and call counts per span for one traced workload run.

    Use :meth:`installed` around the run; read :meth:`report` after it.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.instances: Dict[str, List[object]] = defaultdict(list)
        self.cycles = 0
        # Time covered by the spans open at each nesting depth; the
        # bottom entry collects the outermost spans.
        self._stack: List[float] = [0.0]
        self._tick_spans: set = set()
        self._patches: List[Tuple[type, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name``."""
        self_s = self.self_s
        calls = self.calls
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                stack[-1] += elapsed

        return timed

    def _constructor(self, cls: type, span: Optional[str], key: str) -> Callable:
        original = cls.__dict__["__init__"]
        init = self.span(span, original) if span else original
        keep = self.instances[key].append

        @functools.wraps(original)
        def recorded(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            keep(obj)

        return recorded

    def _kernel_run(self, original: Callable) -> Callable:
        timed = self.span("sim.kernel", original)
        trace = self

        @functools.wraps(original)
        def run(kernel, *args, **kwargs):
            for handle in kernel.handles:
                component = handle.component
                if "tick" not in vars(component):
                    name = tick_span(component)
                    trace._tick_spans.add(name)
                    component.tick = trace.span(name, component.tick)
            start = kernel.cycle
            try:
                return timed(kernel, *args, **kwargs)
            finally:
                trace.cycles += kernel.cycle - start

        return run

    def _patch(self, cls: type, attr: str, replacement: object) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Wrap every layer entry point for the duration of the block."""
        try:
            self._patch(SimKernel, "run", self._kernel_run(SimKernel.__dict__["run"]))
            for cls, attr, name in METHOD_SPANS:
                self._patch(cls, attr, self.span(name, cls.__dict__[attr]))
            for cls, span, key in CONSTRUCTORS:
                self._patch(cls, "__init__", self._constructor(cls, span, key))
            yield self
        finally:
            while self._patches:
                cls, attr, original = self._patches.pop()
                setattr(cls, attr, original)

    # -- results -----------------------------------------------------------

    def _total(self, prefix: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def _sum(self, key: str, value: Callable[[object], float]) -> float:
        return sum(value(obj) for obj in self.instances[key])

    def report(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics for a traced run that took ``wall_s``.

        Raises :class:`ReconciliationError` when the spans' self times
        do not add up to the time they cover, or when more than
        :data:`UNATTRIBUTED_TOLERANCE` of the wall-clock lies outside
        every span.
        """
        covered = self._stack[0]
        attributed = sum(self.self_s.values())
        if len(self._stack) != 1 or abs(attributed - covered) > 1e-6 * max(wall_s, 1.0):
            raise ReconciliationError(
                f"span self times sum to {attributed:.6f} s but cover {covered:.6f} s"
            )
        unattributed = wall_s - covered
        if unattributed > UNATTRIBUTED_TOLERANCE * wall_s or unattributed < -1e-6:
            raise ReconciliationError(
                f"{unattributed:.4f} s of a {wall_s:.4f} s traced run is outside "
                f"every layer span (tolerance {UNATTRIBUTED_TOLERANCE:.0%})"
            )
        s, n = self.self_s, self.calls
        turns = self._sum("machines", lambda m: m.turns_executed)
        metrics = {
            "sim.kernel_self_s": s["sim.kernel"],
            "sim.harness_s": s["sim.harness"],
            "sim.cycles": self.cycles,
            "sim.ticks": sum(n[name] for name in self._tick_spans),
            "network.step_self_s": s["network.step"],
            "network.step_calls": n["network.step"],
            "network.routing_s": s["network.routing"],
            "network.routing_calls": n["network.routing"],
            "network.occupancy_s": s["network.occupancy"],
            "network.occupancy_calls": n["network.occupancy"],
            "network.tick_s": s["network.tick"],
            "network.build_s": s["network.build"],
            "network.delivered": self._sum("fabrics", lambda f: f.stats.delivered),
            "network.blocked_moves": self._sum(
                "fabrics", lambda f: sum(r.stats.blocked_moves for r in f.routers)
            ),
            "nic.deliver_s": s["nic.deliver"],
            "nic.deliver_calls": n["nic.deliver"],
            "nic.transmit_s": s["nic.transmit"],
            "nic.send_s": s["nic.send"],
            "nic.next_s": s["nic.next"],
            "nic.build_s": s["nic.build"],
            "nic.refused": self._sum("interfaces", lambda i: i.stats.refused),
            "nic.diverts": self._sum(
                "interfaces",
                lambda i: i.stats.pin_diverted
                + i.stats.privileged_diverted
                + i.stats.cap_diverted,
            ),
            "tenancy.scheduler_s": s["tenancy.scheduler"],
            "tenancy.scheduler_ticks": n["tenancy.scheduler"],
            "tenancy.divert_s": s["tenancy.divert"],
            "tenancy.pump_s": s["tenancy.pump"],
            "tenancy.server_s": s["tenancy.server"],
            "tenancy.tick_s": s["tenancy.tick"],
            "tenancy.build_s": s["tenancy.build"],
            "tenancy.dispatched": self._sum("tenancy_runs", lambda r: r.dispatched),
            "tenancy.switches": self._sum(
                "tenancy_runs", lambda r: r.scheduler.switches
            ),
            "tam.build_s": s["tam.build"],
            "tam.load_s": s["tam.load"],
            "tam.run_s": s["tam.run"],
            "tam.turns": turns,
            "tam.messages": self._sum(
                "machines", lambda m: m.stats.messages.total_messages
            ),
            "tam.instructions": self._sum(
                "machines", lambda m: m.stats.total_instructions
            ),
            "tam.turns_per_s": turns / s["tam.run"] if s["tam.run"] else 0.0,
            "obs.tracer_s": s["obs.tracer"],
            "obs.tracer_events": self._sum("tracers", lambda t: t.emitted),
            "obs.tracer_dropped": self._sum("tracers", lambda t: t.dropped),
            "obs.lineage_s": s["obs.lineage"],
            "obs.lineage_spans": self._sum(
                "lineage", lambda t: sum(len(r.spans) for r in t.records)
            ),
            "obs.metrics_s": s["obs.metrics"],
            "bench.unattributed_s": unattributed,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self._total(f"{layer}.")
        return metrics
