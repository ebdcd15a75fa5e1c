"""Benchmark entry point for both planes of the failure-detection library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: ``sweep`` (replay plane: trace store, registry kernels,
replay accounting, experiment plan and cache), ``ingest`` (in-process
live plane: sharded membership table and streaming detectors), and
``loopback_light`` / ``loopback_heavy`` (a ``LiveMonitor`` behind a real
127.0.0.1 UDP socket, fed by an open-loop generator process).  See
``perfbench/README.md`` for what each metric means on each workload.

The workload builds its inputs from ``--seed`` and checks the program's
outputs.  Human-readable figures go to stdout first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
metrics from a separately traced pass (``--trace 1``).  Spans of a traced
run are written to ``.perfbench_out/``.  The exit code is 0 only when
every check passed; ``--workload all`` runs each workload in its own
process and exits non-zero if any of them did.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep", "ingest", "loopback_light", "loopback_heavy")


def _runner(workload: str):
    if workload == "sweep":
        import sweep

        return sweep.run
    if workload == "ingest":
        import ingest

        return ingest.run
    import loopback

    rate = workload.removeprefix("loopback_")
    return lambda seed, seconds, trace, tracer: loopback.run(rate, seed, seconds, trace, tracer)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for w in WORKLOADS
        ]
        return max(codes)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    from common import OUT
    from tracing import Tracer

    tracer = Tracer()
    out = _runner(args.workload)(args.seed, args.seconds, bool(args.trace), tracer)

    # End-to-end metrics are every workload's; a per-layer metric reads 0
    # on a workload that does not run its layer.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    produced = out.layer if args.trace else out.e2e
    names = [m["name"] for m in declared]
    unknown = sorted(set(produced) - set(names))
    out.check(not unknown, f"metrics not declared in BENCHMARK.json: {unknown}")
    if not args.trace:
        missing = [n for n in names if n not in produced]
        out.check(not missing, f"workload produced no value for {missing}")
    values = {n: float(produced.get(n, 0.0)) for n in names}
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    for name, value, unit in out.report:
        print(f"{args.workload:>15}  {name:<28} {value:>14.6g} {unit}")
    for m in declared:
        print(f"{args.workload:>15}  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}")
    for error in out.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not out.errors,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
