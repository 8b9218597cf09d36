"""Structured event tracing for the message path.

The paper's flow-control story (Section 2.1.1) is a *chain*: a slow
receiver's input queue fills, deliveries are refused, link buffers back
up hop by hop, injection stalls, and finally the sender's output queue
fills until ``SEND`` itself stalls.  Each link of that chain is a typed
event here, stamped with the cycle (fabric time) or turn (TAM time) it
happened on:

===========  ================================================================
kind         emitted when
===========  ================================================================
``send``     an interface queued an outgoing message (``SEND`` succeeded)
``stall``    ``SEND`` found the output queue full under the STALL policy
``inject``   a router accepted a message from its local interface
``hop``      a message crossed a link into a neighbor router's buffer
``block``    a head-of-buffer message had no credit to move this cycle
``eject``    a router handed a message to its local interface (accepted)
``deliver``  an interface queued a delivered message into its input queue
``refuse``   a delivery attempt met a full input queue (backpressure)
``divert``   a privileged / PIN-mismatched message was diverted (S2.1.3)
``next``     software retired the current message with ``NEXT``
``dispatch`` a message advanced from the input queue into the registers
``tam_post`` the TAM runtime posted an inter-frame message
``tam_handle`` a TAM node processed one inter-frame message
===========  ================================================================

The tracer is a :class:`~repro.obs.probe.Probe`: layers report
transitions, and its hook methods below are the only place the event
format (kind, node, timestamp, detail fields) is defined; every event
goes through :meth:`Tracer.emit`.  Tracing is zero-cost when off: an
unobserved layer pays one identity check per transition, and an
unobserved TAM machine runs byte-identical uninstrumented code.

Events land in a bounded ring buffer so tracing a long run cannot
exhaust memory; per-kind counts are kept separately and never evicted,
which is what lets the reconciliation tests compare event counts against
:class:`~repro.network.fabric.FabricStats` /
:class:`~repro.nic.queues.QueueStats` /
:class:`~repro.nic.interface.InterfaceStats` exactly even after the ring
has wrapped.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, NamedTuple, Optional

from repro.obs.probe import Probe

# Event kinds.  Plain strings (not an enum): emission sits on simulator
# hot paths and exports want the string anyway.
SEND = "send"
SEND_STALL = "stall"
INJECT = "inject"
HOP = "hop"
BLOCK = "block"
EJECT = "eject"
DELIVER = "deliver"
REFUSE = "refuse"
DIVERT = "divert"
NEXT = "next"
DISPATCH = "dispatch"
TAM_POST = "tam_post"
TAM_HANDLE = "tam_handle"

ALL_KINDS = (
    SEND,
    SEND_STALL,
    INJECT,
    HOP,
    BLOCK,
    EJECT,
    DELIVER,
    REFUSE,
    DIVERT,
    NEXT,
    DISPATCH,
    TAM_POST,
    TAM_HANDLE,
)

DEFAULT_RING_CAPACITY = 1 << 16


class TraceEvent(NamedTuple):
    """One traced occurrence on the message path."""

    ts: int
    """Cycle (fabric events) or monotonic turn sequence (TAM events)."""
    kind: str
    """One of the module-level kind constants."""
    node: int
    """The node at which the event was observed."""
    detail: dict
    """Kind-specific fields (destination, hop count, message kind, ...)."""


class Tracer(Probe):
    """A ring-buffered recorder of :class:`TraceEvent`.

    ``capacity`` bounds the ring; ``None`` keeps every event (tests and
    short runs).  :attr:`counts` is exact regardless of eviction.
    """

    __slots__ = ("events", "counts", "emitted", "capacity")

    def __init__(self, capacity: Optional[int] = DEFAULT_RING_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("tracer ring capacity must be positive")
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.counts: Dict[str, int] = {}
        self.emitted = 0

    def emit(self, ts: int, kind: str, node: int, **detail) -> None:
        """Record one event; evicts the oldest when the ring is full."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.emitted += 1
        self.events.append(TraceEvent(ts, kind, node, detail))

    # -- probe hooks: one event per observed transition ------------------

    def on_send(self, message: Any, node: int, ts: int, mode: Any) -> None:
        self.emit(ts, SEND, node, dest=message.destination, mtype=message.mtype, mode=mode.value)

    def on_send_stall(self, message: Any, node: int, ts: int) -> None:
        self.emit(ts, SEND_STALL, node, dest=message.destination)

    def on_inject(self, message: Any, ts: int, node: int) -> None:
        self.emit(ts, INJECT, node, dest=message.destination)

    def on_hop(self, message: Any, ts: int, hops: int, node: int, vc: int, src: int) -> None:
        self.emit(ts, HOP, node, src=src, dest=message.destination, hops=hops)

    def on_block(self, message: Any, ts: int, node: int, to: Optional[int]) -> None:
        if to is None:
            self.emit(ts, BLOCK, node, port="eject")
        else:
            self.emit(ts, BLOCK, node, port="link", to=to)

    def on_eject(self, message: Any, ts: int, node: int, hops: int, latency: int) -> None:
        self.emit(ts, EJECT, node, hops=hops, latency=latency)

    def on_refuse(self, message: Any, ts: int, node: int) -> None:
        self.emit(ts, REFUSE, node, dest=message.destination)

    def on_deliver(self, message: Any, ts: int, node: int) -> None:
        self.emit(ts, DELIVER, node, mtype=message.mtype)

    def on_divert(self, message: Any, ts: int, reason: str, node: int) -> None:
        self.emit(ts, DIVERT, node, privileged=message.privileged, pin=message.pin)

    def on_dispatch(self, message: Any, ts: int, detail: Optional[dict], node: int) -> None:
        self.emit(ts, DISPATCH, node, mtype=message.mtype)

    def on_retire(self, message: Any, ts: int, node: int) -> None:
        self.emit(ts, NEXT, node)

    def tam_post(self, message: Any, kind: Any, node: int, turn: int) -> None:
        self.emit(turn, TAM_POST, node, mkind=kind.name)

    def tam_begin_handle(self, message: Any, kind: Any, node: int, turn: int) -> None:
        self.emit(turn, TAM_HANDLE, node, mkind=kind.name)

    def count(self, kind: str) -> int:
        """Exact number of ``kind`` events emitted (eviction-proof)."""
        return self.counts.get(kind, 0)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (still present in the counts)."""
        return self.emitted - len(self.events)

    def clear(self) -> None:
        """Discard all events and counts."""
        self.events.clear()
        self.counts.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer {len(self.events)} buffered / {self.emitted} emitted "
            f"({self.dropped} dropped)>"
        )
