"""A fixed reference task that measures how fast the host runs right now.

The host's speed drifts by a quarter or more over tens of seconds, in
CPU time as well as wall-clock, so two runs of the same code minutes
apart disagree by more than any useful bound.  :func:`reference_task`
is a small packet simulation written in the same style as the simulator
(objects, queues, dictionaries, a method call per router per cycle)
followed by a plain arithmetic loop, sharing no code with the simulator:
the benchmark runs it between iterations and scales the simulator's CPU
times by the task's over the same run, which cancels the drift while any
change to the simulator still moves them by its full share.  The two
halves slow down differently as the host drifts (the simulation with the
memory system, the loop with the clock), and their sum followed the
simulator's workloads more closely than either alone.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

#: Scaled times are CPU seconds on a host that runs one reference task in
#: this many CPU seconds (roughly its time on the 2-CPU development host).
#: It fixes the unit and is not a measurement: changing it, or the task,
#: rescales every figure.
REFERENCE_SECONDS = 0.2

#: Mesh side, cycles and injection period of the packet simulation.
SIDE = 8
CYCLES = 1000
INJECT_EVERY = 4

#: Iterations of the arithmetic loop.
LOOP = 1_200_000

Packet = Tuple[int, int, int]  # (destination, birth cycle, id)


class Router:
    """One mesh router with a queue per output direction."""

    __slots__ = ("x", "y", "ports", "delivered", "latency")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y
        self.ports: Dict[str, Deque[Packet]] = {
            d: deque() for d in ("E", "W", "N", "S", "L")
        }
        self.delivered = 0
        self.latency = 0

    def route(self, packet: Packet) -> str:
        dx, dy = packet[0] % SIDE, packet[0] // SIDE
        if dx != self.x:
            return "E" if dx > self.x else "W"
        if dy != self.y:
            return "S" if dy > self.y else "N"
        return "L"

    def accept(self, packet: Packet) -> None:
        self.ports[self.route(packet)].append(packet)

    def step(self, mesh: List["Router"], cycle: int) -> None:
        for direction, queue in self.ports.items():
            if not queue:
                continue
            packet = queue.popleft()
            if direction == "L":
                self.delivered += 1
                self.latency += cycle - packet[1]
                continue
            x = self.x + (direction == "E") - (direction == "W")
            y = self.y + (direction == "S") - (direction == "N")
            mesh[y * SIDE + x].accept(packet)


def packet_simulation() -> Tuple[int, int]:
    """Uniform traffic on the mesh until it drains: (delivered, latency)."""
    mesh = [Router(i % SIDE, i // SIDE) for i in range(SIDE * SIDE)]
    state = 12345
    serial = 0
    for cycle in range(CYCLES):
        if cycle % INJECT_EVERY == 0:
            for router in mesh:
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                router.accept((state % (SIDE * SIDE), cycle, serial))
                serial += 1
        for router in mesh:
            router.step(mesh, cycle)
    while any(q for router in mesh for q in router.ports.values()):
        cycle += 1
        for router in mesh:
            router.step(mesh, cycle)
    return (
        sum(router.delivered for router in mesh),
        sum(router.latency for router in mesh),
    )


def arithmetic_loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def reference_task() -> Tuple[int, int, int]:
    """Run both halves; returns their results."""
    return packet_simulation() + (arithmetic_loop(),)
