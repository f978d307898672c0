"""MiddleWhere end-to-end benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload office --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
without instrumentation.  ``--trace 1`` runs half the rounds twice,
untraced and then with a span ledger wrapped around each layer's public
calls, and prints the per-layer metrics plus ``trace.overhead_ratio``
(traced ingest rate over untraced).  Either way every round's outputs
are checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md for
the workloads, the metrics and which layer moves which number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def declared_metrics(section: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def end_to_end(measure) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(measure.setup_s),
        "ingest_rps": statistics.median(measure.round_rps),
        "peak_rss_mb": measure.peak_rss_mb,
    }


def latency_summary(measure) -> List[str]:
    """Sample counts and more percentiles than the metrics carry."""
    lines = [f"rounds={len(measure.round_rps)} "
             f"readings={measure.readings} setups={len(measure.setup_s)}"]
    for kind in ("write", "locate", "region"):
        ordered = sorted(getattr(measure, f"{kind}_ns"))
        cuts = "  ".join(
            f"p{round(q * 100)}="
            f"{ordered[max(1, math.ceil(q * len(ordered))) - 1] / 1000:.1f}"
            for q in (0.5, 0.9, 0.99))
        lines.append(f"{kind:<7} n={len(ordered):<7} {cuts}  "
                     f"max={ordered[-1] / 1000:.1f} us")
    return lines


def _child_pids() -> List[int]:
    """Processes whose parent is this one, read from /proc."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    ``ShardCluster`` spawns its shards with the ``spawn`` start method,
    which also starts multiprocessing's resource tracker; the tracker
    outlives the cluster and would otherwise end only after this process
    has exited, unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("office", "campus", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ledger import ACCOUNTING_TOLERANCE, Ledger, layer_metrics
    from workloads import (RUNNERS, SHAPES, BenchmarkError, Measure,
                           rounds_for)

    rounds = rounds_for(args.workload, args.seconds)
    if args.trace:
        rounds = max(1, (rounds + 1) // 2)
    run = RUNNERS[args.workload]
    work_dir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"readings/round={SHAPES[args.workload].readings} "
          f"work_dir={work_dir}")
    try:
        plain = Measure()
        run(args.seed, rounds, plain, os.path.join(work_dir, "plain"))
        measures = [plain]
        if args.trace:
            ledger = Ledger()
            traced = Measure()
            run(args.seed, rounds, traced,
                os.path.join(work_dir, "traced"), ledger)
            measures.append(traced)
    except BenchmarkError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    attempted = sum(m.attempted for m in measures)
    failed = sum(m.failed for m in measures)
    for measure in measures:
        for problem in measure.problems:
            print(f"CHECK FAILED: {problem}")
    if args.trace:
        metrics = layer_metrics(ledger, traced.layers, traced)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced.round_rps)
            / statistics.median(plain.round_rps))
        share = metrics["trace.accounted_share"]
        if args.workload == "office" and \
                abs(1.0 - share) > ACCOUNTING_TOLERANCE:
            failed += 1
            print(f"CHECK FAILED: layer self times cover {share:.3f} of "
                  f"the traced wall time (tolerance "
                  f"{ACCOUNTING_TOLERANCE})")
        print(ledger.table())
        units = declared_metrics("per_layer")
    else:
        metrics = end_to_end(plain)
        print("\n".join(latency_summary(plain)))
        units = declared_metrics("end_to_end")
    if set(metrics) != set(units):
        print(f"metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items()}
    for name, entry in result.items():
        print(f"{name:<32}{entry['value']:>16.4f} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
