"""Time the simulator end to end, or attribute its host seconds to layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tenant-serve --seed 42 --seconds 50 --trace 0

One process runs one workload (see ``perfbench/workloads.py``):

1. One untimed warm-up iteration, whose payload digest must equal the
   pinned one (``perfbench/digests.json``) when the seed is pinned.
2. Timed iterations, cycling through the workload's input sets, until
   ``--seconds`` have passed and every input set has run once.  With
   ``--trace 0`` they run untraced, each followed by the reference task
   (``perfbench/reference.py``), and give ``cpu_s``, ``events_per_s``
   and ``peak_rss_mb``.  With ``--trace 1``
   untraced and traced iterations alternate on the same inputs and give
   the per-layer metrics (``perfbench/layers.py``); a traced payload
   must match its untraced twin exactly.
3. ``setup_s``: between iterations, spread evenly over the run,
   :data:`SETUP_PROBES` fresh interpreters each import the simulator and
   build the workload's inputs; each reports the CPU seconds it spent
   from its start to its first simulated cycle, and the median, scaled
   like ``cpu_s``, is reported.

End-to-end times are CPU seconds of the measuring process
(``time.process_time``), not wall-clock: the simulator is one thread, so
on an idle host the two agree, while on a shared host the CPU time
leaves out the time the process waits for a processor (other processes,
or the hypervisor's steal), which can double the wall-clock from one
run to the next.  The host's speed also drifts, in CPU time too, by a
quarter or more over tens of seconds, so the end-to-end times are
scaled by the mean CPU time of the reference task run between the
iterations: they are *reference seconds*, the CPU seconds the work would
take on a host that runs the reference task in
:data:`~reference.REFERENCE_SECONDS`.  Per-layer times are wall-clock
within a traced iteration, so that they reconcile with the spans that
partition it.

Every iteration's payload digest must match the first one seen for the
same inputs.  An iteration that raises or mismatches counts as failed.
The last stdout line is the JSON result; the line before it holds the
run's metadata (host, TAM backend, per-iteration times, digests).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from reference import REFERENCE_SECONDS, reference_task

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("tenant-serve", "mesh-uniform", "tam-programs", "observed")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
READY = "first-cycle"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def digest(payload: Dict) -> str:
    """sha256 of the payload's canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def host_metadata() -> Dict[str, object]:
    host = {
        "cpu_count": os.cpu_count(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "node": platform.node(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }
    host["fingerprint"] = digest(host)[:16]
    return host


# -- set-up time ------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> None:
    """Child side: build the workload, signal at its first simulated cycle."""
    from repro.sim.kernel import SimKernel
    from repro.tam.runtime import TamMachine
    from workloads import WORKLOADS

    def reached(*args, **kwargs):
        sys.stdout.write(f"{READY} {time.process_time()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    SimKernel.run = reached
    TamMachine.run = reached
    WORKLOADS[workload](seed)(0)
    sys.exit(f"{workload} finished without starting a simulation")


def measure_setup(workload: str, seed: int) -> float:
    """CPU seconds from interpreter start to first simulated cycle."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", workload, "--seed", str(seed),
    ]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        child.stdout.read()
        child.wait(timeout=PROBE_TIMEOUT_S)
    ready, _, cpu = line.partition(" ")
    if ready != READY or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return float(cpu)


# -- timed iterations -------------------------------------------------------


def time_reference() -> float:
    """CPU seconds of one run of the reference task."""
    gc.collect()
    start = time.process_time()
    reference_task()
    return time.process_time() - start


class DigestMismatch(Exception):
    """A payload differs from the pinned or first-seen one for its inputs."""


class Runner:
    """Runs iterations, checks their digests, and counts failures."""

    def __init__(self, iteration, pinned: Optional[str]) -> None:
        self.iteration = iteration
        self.expected: Dict[int, str] = {} if pinned is None else {0: pinned}
        self.attempted = 0
        self.failed = 0

    def attempt(self, j: int, trace=None) -> Optional[Tuple[float, float, int, Dict]]:
        """One iteration on slot ``j``: (wall s, CPU s, events, layer report)."""
        self.attempted += 1
        gc.collect()  # every iteration starts from the same collector state
        try:
            if trace is None:
                start, start_cpu = time.perf_counter(), time.process_time()
                payload, events = self.iteration(j)
                cpu = time.process_time() - start_cpu
                wall = time.perf_counter() - start
                report = {}
            else:
                with trace.installed():
                    start, start_cpu = time.perf_counter(), time.process_time()
                    payload, events = self.iteration(j)
                    cpu = time.process_time() - start_cpu
                    wall = time.perf_counter() - start
                report = trace.report(wall)
            found = digest(payload)
            expected = self.expected.setdefault(j, found)
            if found != expected:
                raise DigestMismatch(f"slot {j} digest {found} != expected {expected}")
            return wall, cpu, events, report
        except Exception:  # a failed run is counted and the benchmark goes on
            self.failed += 1
            traceback.print_exc()
            return None


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed)

    from repro.tam.runtime import TamMachine
    from layers import LayerTrace
    from workloads import ROTATIONS, WORKLOADS

    pins = json.loads((HERE / "digests.json").read_text())
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    rotation = ROTATIONS[args.workload]
    runner = Runner(WORKLOADS[args.workload](args.seed), pinned)
    runner.attempt(0)  # warm-up: fills caches, checks the pinned digest

    walls: List[float] = []
    cpus: List[float] = []
    reference_cpus: List[float] = []
    slot_cpus: Dict[int, List[float]] = {j: [] for j in range(rotation)}
    slot_events: Dict[int, int] = {}
    traced_walls: List[float] = []
    reports: List[Dict] = []
    setup_samples: List[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while k < rotation or time.perf_counter() < deadline:
        due = start + len(setup_samples) * args.seconds / SETUP_PROBES
        if len(setup_samples) < SETUP_PROBES and time.perf_counter() >= due:
            setup_samples.append(measure_setup(args.workload, args.seed))
        j = k % rotation
        k += 1
        result = runner.attempt(j)
        if result is not None:
            walls.append(result[0])
            cpus.append(result[1])
            slot_cpus[j].append(result[1])
            slot_events[j] = result[2]
        if not args.trace:
            reference_cpus.append(time_reference())
        else:
            result = runner.attempt(j, LayerTrace())
            if result is not None:
                traced_walls.append(result[0])
                reports.append(result[3])
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(measure_setup(args.workload, args.seed))

    metrics: Dict[str, float] = {}
    if args.trace and reports and walls:
        for name in reports[0]:
            metrics[name] = statistics.fmean(r[name] for r in reports)
        traced, untraced = statistics.median(traced_walls), statistics.median(walls)
        metrics["bench.traced_wall_s"] = traced
        metrics["bench.untraced_wall_s"] = untraced
        metrics["bench.trace_overhead"] = traced / untraced - 1
        metrics["bench.unattributed_share"] = (
            metrics["bench.unattributed_s"] / statistics.fmean(traced_walls)
        )
    elif not args.trace and all(slot_cpus.values()):
        # Each input set's mean, averaged over the input sets, so that a
        # set that ran once more than another weighs the same.
        cpu_s = statistics.fmean(
            statistics.fmean(samples) for samples in slot_cpus.values()
        )
        scale = REFERENCE_SECONDS / statistics.fmean(reference_cpus)
        metrics = {
            "cpu_s": cpu_s * scale,
            "setup_s": statistics.median(setup_samples) * scale,
            "events_per_s": statistics.fmean(slot_events.values()) / (cpu_s * scale),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    unit_of = {
        m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]
    }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tam_backend": TamMachine(1).backend,
        "host": host_metadata(),
        "rotation": rotation,
        "samples": len(walls),
        "traced_samples": len(traced_walls),
        "cpu_s_unscaled_mean": statistics.fmean(cpus) if cpus else None,
        "reference_s_mean": (
            statistics.fmean(reference_cpus) if reference_cpus else None
        ),
        "cpu_s_quartiles": quartiles(cpus),
        "cpus": cpus,
        "reference_cpus": reference_cpus,
        "walls": walls,
        "slot_events": slot_events,
        "setup_s_samples": setup_samples,
        "error_rate": runner.failed / runner.attempted,
        "digest_slot0": runner.expected.get(0),
        "digest_pinned": pinned is not None,
    }
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit_of[name]}")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
