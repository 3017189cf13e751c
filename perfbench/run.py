"""Benchmark entry point: one election, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--trace 1]

Workloads: ``election-ed25519``, ``tally-modp2048``, ``cast-gateway`` (see
README.md).  The program under test is imported from this checkout's
``src/``.  Human-readable lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``.  ``--workload all`` runs every
workload in its own process, checks each, and (with ``--trace 1``) also runs
it traced and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("election-ed25519", "tally-modp2048", "cast-gateway")

#: The end-to-end metrics every workload reports (name, unit): set-up, and
#: the typical total time callers waited on the run's timed operations.
END_TO_END = (("setup_s", "s"), ("wait_s", "s"))

#: Workload-specific end-to-end figures, printed by name:
#: (name, samples in seconds, statistic, unit, scale).
TALLY_DETAILS = (
    ("tally_s", "tally_s", "p50", "s", 1.0),
    ("audit_s", "audit_s", "p50", "s", 1.0),
)
DETAILS: Dict[str, Tuple[Tuple[str, str, str, str, float], ...]] = {
    "election-ed25519": (
        ("registration_p50_s", "registration_s", "p50", "s", 1.0),
        ("registration_p90_s", "registration_s", "p90", "s", 1.0),
        ("vote_p50_s", "vote_s", "p50", "s", 1.0),
        ("vote_p90_s", "vote_s", "p90", "s", 1.0),
    ) + TALLY_DETAILS,
    "tally-modp2048": TALLY_DETAILS,
    "cast-gateway": TALLY_DETAILS + (
        ("cast_low_p50_ms", "cast_low_s", "p50", "ms", 1e3),
        ("cast_low_p90_ms", "cast_low_s", "p90", "ms", 1e3),
        ("cast_high_p50_ms", "cast_high_s", "p50", "ms", 1e3),
        ("cast_high_p90_ms", "cast_high_s", "p90", "ms", 1e3),
        ("cast_bulk_per_s", "cast_bulk_per_s", "p50", "ballots/s", 1.0),
        ("gen_late_low_p90_ms", "gen_late_low_s", "p90", "ms", 1e3),
        ("gen_late_high_p90_ms", "gen_late_high_s", "p90", "ms", 1e3),
        ("http_registration_p50_s", "http_registration_s", "p50", "s", 1.0),
    ),
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    # The program reads REPRO_* settings (bigint backend, telemetry, table
    # cache, gateway governor) from the environment; the benchmark measures
    # its defaults, in this process and in the gateway it starts.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    return _run_one(args)


def _run_one(args: argparse.Namespace) -> int:
    from measure import Run, calibrate, p50, p90

    run = Run()
    run.info.update(calibrate(args.seed))
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    server_dump = os.path.join(OUT_DIR, f"gateway-spans-{os.getpid()}.json") if args.trace else None
    _execute(run, args, server_dump)

    run.samples["wait_s"] = [run.wait_s()]
    stats = {"p50": p50, "p90": p90}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, unit in END_TO_END:
        samples = run.samples[name]
        print(f"  {name:<26} {p50(samples):>12.4f} {unit:<9} n={len(samples)}")
    for name, key, statistic, unit, scale in DETAILS[args.workload]:
        samples = run.samples.get(key, [])
        value = stats[statistic](samples) * scale if samples else math.nan
        print(f"  {name:<26} {value:>12.4f} {unit:<9} n={len(samples)}")
    print(f"  {'failed/attempted':<26} {run.failed_total()}/{run.attempted}")
    for key in ("calib.modexp_2048_ms", "calib.ed25519_mul_ms"):
        print(f"  {key:<26} {run.info[key]:>12.4f} ms")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")

    if recorder is None:
        metrics = {name: {"value": p50(run.samples[name]), "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = _traced_metrics(run, recorder, server_dump, args)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed_total(),
        "metrics": metrics,
    }))
    return 0


def _execute(run, args: argparse.Namespace, server_dump: Optional[str]) -> None:
    """Run the workload once.

    The two in-process workloads have a fixed size; ``--seconds`` sets the
    length of the cast-gateway legs.
    """
    if args.workload == "cast-gateway":
        from castload import cast_gateway

        cast_gateway(run, args.seed, args.seconds, ROOT, server_dump)
    elif args.workload == "election-ed25519":
        from workloads import election_ed25519

        election_ed25519(run, args.seed)
    else:
        from workloads import tally_modp2048

        tally_modp2048(run, args.seed)


def _traced_metrics(run, recorder, server_dump: Optional[str], args: argparse.Namespace) -> Dict[str, Dict]:
    from layers import PER_LAYER, layer_metrics

    spans = list(recorder.spans)
    if server_dump is not None and os.path.exists(server_dump):
        with open(server_dump) as handle:
            offset = 1 << 40  # keep the gateway's span ids apart from this process's
            spans += [
                (span_id + offset, parent + offset if parent else 0, name, start, end, attrs)
                for span_id, parent, name, start, end, attrs in json.load(handle)
            ]
        os.remove(server_dump)
    values = layer_metrics(run, spans)
    dump = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    with open(dump, "w") as handle:
        json.dump({"phases": run.phases, "spans": spans}, handle)
    print(f"  spans written to {os.path.relpath(dump, ROOT)}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, _, _ in PER_LAYER:
        print(f"  {name:<36} {values[name]:>14.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; with --trace 1, also traced, with overhead."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1) if args.trace else (0,):
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if completed.returncode != 0 or not lines:
                print(f"perfbench: {workload} (trace={trace}) exited with {completed.returncode}", file=sys.stderr)
                return 1
            results[trace] = json.loads(lines[-1])
        untraced = results[0]
        summary["correct"] = summary["correct"] and all(result["correct"] for result in results.values())
        summary["attempted"] += untraced["attempted"]
        summary["failed"] += untraced["failed"]
        for name, metric in untraced["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
        if args.trace:
            for name, _ in END_TO_END:
                traced = results[1]["metrics"][f"traced.{name}"]["value"]
                plain = untraced["metrics"][name]["value"]
                print(f"  tracing overhead on {name:<10} {traced / plain:>8.3f}x  ({traced:.4f} s traced, {plain:.4f} s untraced)")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
