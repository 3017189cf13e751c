#!/usr/bin/env python3
"""Bench trend guard: diff fresh ``BENCH_*.json`` against checked-in baselines.

Every bench in this suite emits a machine-readable ``BENCH_<name>.json``
(see :func:`repro.bench.harness.emit_bench_json`).  The benches gate their
own hard floors — "batched must beat eager by 2x" — but a run that merely
*drifts* (2.4x last month, 2.1x today) passes every hard gate while the
trend quietly erodes.  This tool is the drift alarm: it compares the gated
metrics of a fresh run against snapshots committed under
``benchmarks/baselines/`` and

* **warns** when a metric regresses by more than ``WARN_FRACTION`` (15%),
* **fails** (exit 1) past ``FAIL_FRACTION`` (30%), or when a gated metric
  or its result file is missing outright.

Only machine-independent *ratios* are gated (telemetry overhead ratios,
gateway batching speedup, cluster-of-one overhead, batched-vs-eager audit
speedup): absolute wall-clock differs per runner and would flake, but a
ratio of two timings taken on the same machine in the same process is
comparable across machines.  Noisy ratios may carry per-metric
``warn``/``fail`` overrides in their baseline entry — looser bands are a
property of the *metric*, recorded next to its value, not a global knob.

Baselines are ordinary JSON snapshots::

    {"bench": "gateway", "metrics": {"speedup": {"value": 10.0, "better": "higher"}}}

To update after an intentional change, re-run the bench and copy the new
value in (the committed diff *is* the review trail).

Usage::

    python benchmarks/compare_bench.py [--results DIR] [--baselines DIR]

``--results`` defaults to ``$REPRO_BENCH_JSON_DIR`` (the directory the CI
bench-smoke job points every bench at), then ``./bench-results``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

WARN_FRACTION = 0.15
FAIL_FRACTION = 0.30

_OK, _WARN, _FAIL = "ok", "WARN", "FAIL"


def load_metric(payload: Dict[str, Any], dotted: str) -> Optional[float]:
    """Resolve a dotted path into a bench payload; ``None`` if absent."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def regression(current: float, baseline: float, better: str) -> float:
    """Fractional regression vs baseline; positive means *worse*.

    ``better="lower"`` (overhead ratios): worse is growing.
    ``better="higher"`` (speedups): worse is shrinking.
    """
    if baseline == 0:
        return 0.0
    if better == "higher":
        return (baseline - current) / baseline
    return (current - baseline) / baseline


def compare(results_dir: Path, baselines_dir: Path) -> int:
    rows: List[List[str]] = []
    failures = 0
    warnings = 0

    baseline_files = sorted(baselines_dir.glob("*.json"))
    if not baseline_files:
        print(f"no baselines found under {baselines_dir}", file=sys.stderr)
        return 1

    for baseline_file in baseline_files:
        spec = json.loads(baseline_file.read_text())
        bench = spec["bench"]
        result_path = results_dir / f"BENCH_{bench}.json"
        payload: Dict[str, Any] = {}
        if result_path.exists():
            payload = json.loads(result_path.read_text())
        for name, entry in spec["metrics"].items():
            baseline_value = float(entry["value"])
            better = entry.get("better", "lower")
            warn_at = float(entry.get("warn", WARN_FRACTION))
            fail_at = float(entry.get("fail", FAIL_FRACTION))
            current = load_metric(payload, name) if payload else None
            if current is None:
                reason = "no result file" if not payload else "metric missing"
                rows.append([bench, name, f"{baseline_value:g}", "-", reason, _FAIL])
                failures += 1
                continue
            drift = regression(current, baseline_value, better)
            if drift > fail_at:
                status, detail = _FAIL, f"{drift:+.1%} > {fail_at:.0%}"
                failures += 1
            elif drift > warn_at:
                status, detail = _WARN, f"{drift:+.1%} > {warn_at:.0%}"
                warnings += 1
            else:
                status, detail = _OK, f"{drift:+.1%}"
            rows.append([bench, name, f"{baseline_value:g}", f"{current:g}", detail, status])

    headers = ["bench", "metric", "baseline", "current", "drift", "status"]
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(len(headers))]
    title = f"Bench trend vs baselines ({baselines_dir})"
    print(title)
    print("=" * len(title))
    print("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    print("  ".join("-" * width for width in widths))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    print()
    verdict = f"{len(rows)} gated metric(s): {failures} fail, {warnings} warn"
    print(verdict)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results",
        default=os.environ.get("REPRO_BENCH_JSON_DIR", "bench-results"),
        help="directory holding fresh BENCH_*.json (default: $REPRO_BENCH_JSON_DIR)",
    )
    parser.add_argument(
        "--baselines",
        default=str(Path(__file__).resolve().parent / "baselines"),
        help="directory of committed baseline snapshots",
    )
    args = parser.parse_args(argv)
    return compare(Path(args.results), Path(args.baselines))


if __name__ == "__main__":
    sys.exit(main())
