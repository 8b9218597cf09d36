"""One observer hook per message-path transition.

Each producing layer (interface, fabric, collectives engine, TAM
machine) keeps one ``probe`` slot, ``None`` when nothing observes it,
and makes one identity-guarded call per transition.  :class:`Probe`
names every transition as a no-op hook; the
:class:`~repro.obs.tracer.Tracer` and the
:class:`~repro.obs.lineage.LineageTracker` override the hooks they
record, and :func:`combine` hands a layer both at once.  Fabric-side
hooks take the fabric cycle ``ts``; TAM hooks take ``turn``, the
machine's monotonic post/handle sequence, and the message's ``kind``
(a :class:`~repro.tam.messages.MsgKind`) and ``node`` as arguments:
generated-code messages are plain tuples, so TAM hooks read no
attribute of ``message`` (observers may keep it as an identity).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

__all__ = ["FanOut", "Probe", "combine"]


class Probe:
    """No-op hooks, one per transition; observers override what they record."""

    __slots__ = ()

    # -- interface and fabric (cycle timeline) ----------------------------

    def on_send(self, message: Any, node: int, ts: int, mode: Any) -> None:
        """``SEND`` queued ``message`` in the output queue."""

    def on_send_stall(self, message: Any, node: int, ts: int) -> None:
        """``SEND`` found the output queue full under the STALL policy."""

    def on_serialize_start(self, message: Any, ts: int) -> None:
        """``message`` reached the head of its output queue."""

    def on_inject(self, message: Any, ts: int, node: int) -> None:
        """A router took ``message`` into its injection buffer."""

    def on_hop(self, message: Any, ts: int, hops: int, node: int, vc: int, src: int) -> None:
        """``message`` crossed the link ``src -> node`` on channel ``vc``."""

    def on_block(self, message: Any, ts: int, node: int, to: Optional[int]) -> None:
        """A blocked move: no credit on the link to ``to`` (``None``: eject)."""

    def on_eject(self, message: Any, ts: int, node: int, hops: int, latency: int) -> None:
        """The router at ``node`` handed ``message`` to its interface."""

    def on_refuse(self, message: Any, ts: int, node: int) -> None:
        """A delivery met a full input queue (backpressure)."""

    def on_deliver(self, message: Any, ts: int, node: int) -> None:
        """``message`` landed in the input queue."""

    def on_divert(self, message: Any, ts: int, reason: str, node: int) -> None:
        """``message`` was diverted to the scheduler / system queue."""

    def on_drain(self, message: Any, ts: int) -> None:
        """A context switch parked ``message`` out of the input side."""

    def on_dispatch(self, message: Any, ts: int, detail: Optional[dict], node: int) -> None:
        """``message`` advanced into the input registers."""

    def on_retire(self, message: Any, ts: int, node: int) -> None:
        """``NEXT`` disposed of ``message`` (``None``: registers were empty)."""

    # -- collectives engine ------------------------------------------------

    def begin_collective_handler(self, node: int, message: Any) -> None:
        """A handler program starts consuming ``message``."""

    def collective_emit(self, node: int, message: Any) -> None:
        """A handler emitted ``message`` (sent at the next flush)."""

    def end_collective_handler(self, node: int) -> None:
        """The handler program returned."""

    def bind_deferred(self, pending: Any) -> None:
        """The emitted ``pending`` message was just sent."""

    # -- TAM runtime (turn timeline) ---------------------------------------

    def tam_post(self, message: Any, kind: Any, node: int, turn: int) -> None:
        """The runtime posted an inter-frame message of ``kind`` to ``node``."""

    def tam_begin_handle(self, message: Any, kind: Any, node: int, turn: int) -> Any:
        """``node`` starts handling ``message``; the result goes to
        :meth:`tam_end_handle`."""

    def tam_end_handle(self, token: Any) -> None:
        """The handle returned (or raised)."""


#: Every hook name, in definition order.
HOOKS = tuple(name for name in vars(Probe) if not name.startswith("_"))


class FanOut(Probe):
    """Forwards each hook to every probe that overrides it, in order.

    Bound per instance, so a hook only one probe overrides costs no extra
    call; the handle pair hands each probe back its own begin token.
    """

    def __init__(self, *probes: Probe) -> None:
        self.probes = probes
        for name in HOOKS:
            hooks = tuple(
                getattr(probe, name)
                for probe in probes
                if getattr(type(probe), name) is not getattr(Probe, name)
            )
            if name not in vars(FanOut) and hooks:
                setattr(self, name, hooks[0] if len(hooks) == 1 else _forward(hooks))

    def tam_begin_handle(self, message: Any, kind: Any, node: int, turn: int) -> List[Any]:
        return [probe.tam_begin_handle(message, kind, node, turn) for probe in self.probes]

    def tam_end_handle(self, token: List[Any]) -> None:
        for probe, own in zip(self.probes, token):
            probe.tam_end_handle(own)


def _forward(hooks: Tuple[Callable[..., None], ...]) -> Callable[..., None]:
    def hook(*args: Any) -> None:
        for each in hooks:
            each(*args)

    return hook


def combine(*probes: Optional[Probe]) -> Optional[Probe]:
    """One probe for the given observers: ``None``, the one, or a fan-out."""
    present = [probe for probe in probes if probe is not None]
    if len(present) > 1:
        return FanOut(*present)
    return present[0] if present else None
