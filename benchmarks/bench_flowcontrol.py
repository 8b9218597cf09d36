"""The hot-spot backpressure demo plus the observability overhead check.

Two questions, one harness:

* **Does the flow-control chain behave?**  Runs the Section 2.1.1
  hot-spot workload (:mod:`repro.eval.flowcontrol`) traced and prints
  the first-occurrence timeline — input queue almost-full, refused
  deliveries, sender output queues filling, SEND stalls — straight from
  the trace the run produced.

* **What does tracing cost?**  Times the same workload with the
  observability layer detached, attached (tracer + metrics), with the
  lineage tracker attached, and the TAM matmul program with and without
  a tracer.  The untraced numbers are the ones that must not regress:
  the tracer and the lineage tracker share one opt-in probe per layer
  (:mod:`repro.obs.probe`), so an unobserved fabric pays one ``is None``
  check per transition and an unobserved TAM machine nothing at all (its
  entry points are wrapped per instance only when a probe is given).
  The perfdb trends ``hotspot_untraced_seconds`` across same-host runs;
  this script asserts no fixed bound.  The lineage run also
  feeds its per-phase latency shares into the perfdb as trend context
  (``lineage_share_<phase>``).

Every run appends one record to the perf database
(``results/perfdb/``, :mod:`repro.obs.perfdb`) so
``python -m repro.obs.report`` can trend the numbers across commits and
gate regressions; ``BENCH_flowcontrol.json`` remains as the
latest-run-only legacy view (it is overwritten by design — history lives
in the perfdb now).

Run standalone::

    python benchmarks/bench_flowcontrol.py [--smoke] [--perfdb DIR]

or through pytest-benchmark::

    pytest benchmarks/bench_flowcontrol.py --benchmark-only
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.eval.flowcontrol import hotspot_params, render_flowcontrol, run_hotspot
from repro.exp.spec import EvalOptions
from repro.obs import perfdb
from repro.obs.breakdown import phase_breakdown
from repro.obs.lineage import LineageTracker
from repro.obs.metrics import MetricsRecorder
from repro.obs.profiler import SimProfiler, render_profile
from repro.obs.tracer import Tracer
from repro.programs.matmul import run_matmul

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_flowcontrol.json"
BENCH_NAME = "flowcontrol"

MATMUL_N = 24
NODES = 16


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(repeats: int = 3) -> dict:
    """Time the hot-spot fabric and the TAM matmul, traced and not."""
    params = hotspot_params(EvalOptions())
    plain = _best_of(lambda: run_hotspot(params), repeats)
    traced = _best_of(
        lambda: run_hotspot(params, tracer=Tracer(), metrics=MetricsRecorder()),
        repeats,
    )
    profiler = SimProfiler()
    profiled = _best_of(lambda: run_hotspot(params, profiler=profiler), 1)
    lineage = LineageTracker(origin="bench-flowcontrol")

    def run_lineage():
        lineage.clear()
        return run_hotspot(params, lineage=lineage)

    lineaged = _best_of(run_lineage, repeats)
    shares = {
        phase: round(entry["share"], 4)
        for phase, entry in phase_breakdown(lineage)["phases"].items()
    }
    tam_plain = _best_of(
        lambda: run_matmul(n=MATMUL_N, nodes=NODES, verify=False), repeats
    )
    tam_traced = _best_of(
        lambda: run_matmul(n=MATMUL_N, nodes=NODES, verify=False, tracer=Tracer()),
        repeats,
    )
    return {
        "schema_version": perfdb.SCHEMA_VERSION,
        "repeats": repeats,
        "hotspot": {
            "untraced_seconds": round(plain, 4),
            "traced_seconds": round(traced, 4),
            "profiled_seconds": round(profiled, 4),
            "lineage_seconds": round(lineaged, 4),
            "overhead": round(traced / plain - 1.0, 4),
            "lineage_overhead": round(lineaged / plain - 1.0, 4),
            "lineage_phase_shares": shares,
        },
        "matmul": {
            "n": MATMUL_N,
            "nodes": NODES,
            "untraced_seconds": round(tam_plain, 4),
            "traced_seconds": round(tam_traced, 4),
            "overhead": round(tam_traced / tam_plain - 1.0, 4),
        },
        "profile": profiler.to_dict(),
    }


def perf_record(report: dict, smoke: bool) -> dict:
    """Flatten one ``measure()`` report into a perfdb record.

    Smoke runs (CI's quick pass) get their own bench name so their
    single-repeat timings never pollute the full-run trend history.
    Only the ``*_seconds`` metrics face the regression gate; the profile
    rides along as meta so the report can print cycle attribution.
    """
    metrics = {
        "hotspot_untraced_seconds": report["hotspot"]["untraced_seconds"],
        "hotspot_traced_seconds": report["hotspot"]["traced_seconds"],
        "hotspot_profiled_seconds": report["hotspot"]["profiled_seconds"],
        "hotspot_lineage_seconds": report["hotspot"]["lineage_seconds"],
        "matmul_untraced_seconds": report["matmul"]["untraced_seconds"],
        "matmul_traced_seconds": report["matmul"]["traced_seconds"],
        "trace_overhead": report["hotspot"]["overhead"],
        "lineage_overhead": report["hotspot"]["lineage_overhead"],
    }
    for phase, share in report["hotspot"]["lineage_phase_shares"].items():
        metrics[f"lineage_share_{phase}"] = share
    return perfdb.make_record(
        bench=f"{BENCH_NAME}-smoke" if smoke else BENCH_NAME,
        metrics=metrics,
        meta={
            "repeats": report["repeats"],
            "matmul_n": MATMUL_N,
            "nodes": NODES,
            "profile": report["profile"],
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single repeat, recorded under a separate '-smoke' bench name",
    )
    parser.add_argument(
        "--perfdb",
        type=Path,
        default=REPO_ROOT / perfdb.DEFAULT_DB_DIR,
        help="perf database directory (default: results/perfdb)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else 3

    params = hotspot_params(EvalOptions())
    tracer = Tracer()
    metrics = MetricsRecorder()
    payload = run_hotspot(params, tracer=tracer, metrics=metrics)
    print(render_flowcontrol(params, payload))
    print()
    report = measure(repeats)
    print(render_profile(report["profile"]))
    print()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {RESULT_PATH} (latest run only)")
    db_path = perfdb.append_record(args.perfdb, perf_record(report, args.smoke))
    print(f"appended perfdb record to {db_path}")
    for name, row in (("hotspot", report["hotspot"]), ("matmul", report["matmul"])):
        print(
            f"{name:<8} untraced {row['untraced_seconds']:.3f}s  "
            f"traced {row['traced_seconds']:.3f}s  "
            f"overhead {row['overhead'] * 100:+.1f}%"
        )
    hotspot = report["hotspot"]
    print(
        f"lineage  untraced {hotspot['untraced_seconds']:.3f}s  "
        f"lineage {hotspot['lineage_seconds']:.3f}s  "
        f"overhead {hotspot['lineage_overhead'] * 100:+.1f}%"
    )
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points.
# ---------------------------------------------------------------------------


def test_hotspot_untraced(benchmark):
    params = hotspot_params(EvalOptions())
    payload = benchmark(run_hotspot, params)
    assert payload["serviced"] == payload["offered"]


def test_hotspot_traced(benchmark):
    params = hotspot_params(EvalOptions())

    def run():
        return run_hotspot(params, tracer=Tracer(), metrics=MetricsRecorder())

    payload = benchmark(run)
    assert payload["trace"]["emitted"] > 0


if __name__ == "__main__":
    sys.exit(main())
