"""The benchmark's one command.

    python3 perfbench/run.py --workload mrg-proc --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there (pure Python, nothing to build).  Workloads:

* ``mrg-proc`` — MRG on a 2-worker process pool, 5·10⁵×8 points, k=50;
* ``serve-open`` — an open-loop Poisson stream of inline 256×8 GON
  solves against a ``repro serve`` subprocess;
* ``eim-thread`` — EIM (paper defaults) on a 2-worker thread pool,
  5·10⁴×8 points, k=10.  Runnable, but not listed in ``BENCHMARK.json``:
  its run-to-run spread exceeds the bounds (see ``perfbench/README.md``).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same inputs with tracing on and reports the per-layer metrics.  Every
output is checked outside the timed intervals.  Human-readable lines
come first; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0,
     "metrics": {"setup_s": {"value": 0.61, "unit": "s"}, ...}}

The exit code is 0 when a result is printed, 2 when the program cannot
be imported (no ``src/`` beside the benchmark), and 3 when the run is
invalid (the load generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mrg-proc", "eim-thread", "serve-open")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import host

    host.adopt_orphans()
    try:
        return _measure(args)
    finally:
        # Every process the run started (pool workers, the server, the
        # shared-memory resource tracker) has ended before this one does.
        host.stop_resource_tracker()
        killed = host.reap_children()
        if killed:
            print(f"warning: killed {len(killed)} lingering process(es)",
                  file=sys.stderr)


def _measure(args) -> int:
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from perfbench import batch, host, serve_open
    from perfbench.catalog import END_TO_END, PER_LAYER

    env = host.environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    traced = bool(args.trace)
    if args.workload == "serve-open":
        outcome = serve_open.run(args.seed, args.seconds, traced)
    else:
        outcome = batch.run(args.workload, args.seed, args.seconds, traced)

    for line in outcome.report:
        print(line)
    tally = outcome.tally
    print(f"error_rate = {tally.error_rate:.6f} ({tally.failed} of "
          f"{tally.attempted} operations failed)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    if outcome.invalid:
        print(f"invalid run: {outcome.invalid}", file=sys.stderr)
        return 3

    units = PER_LAYER if traced else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = float(outcome.metrics[name])
        note = outcome.notes.get(name, "")
        print(f"{name:<28} {value:>16.6f} {unit:<6} {note}")
        metrics[name] = {"value": value, "unit": unit}
    correct = tally.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
