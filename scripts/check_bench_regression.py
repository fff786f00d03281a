#!/usr/bin/env python3
"""Gate CI on the machine-readable bench output (BENCH_*.json).

Compares a directory of freshly produced bench JSON files against a
committed baseline directory. Runs are matched by (bench, circuit, flow);
for each matched pair the checker fails when:

  * wall time, or a flow row's GP or DP stage time (gp_seconds,
    dp_seconds), regresses by more than --time-tol (default 15%) beyond an
    absolute slack (--time-slack, default 0.1 s, which keeps millisecond-
    scale runs from tripping the gate on scheduler noise);
  * HPWL or area regresses by more than --quality-tol (default 2%, to
    absorb cross-compiler floating-point differences);
  * a throughput rate (moves_per_sec on SA rows; higher is better) drops
    by more than --rate-tol (default 35%; rates are noisier than end-to-end
    wall times on shared CI runners);
  * a run that was legal in the baseline is illegal now;
  * a run that was ok in the baseline is not ok now;
  * a baseline run is missing from the current results;
  * a metric the baseline gates on (wall_seconds, gp_seconds,
    dp_seconds, hpwl, area, moves_per_sec) is present in the baseline
    run but absent from the
    matching current run — a silently dropped metric is a hard failure,
    never a skip, so schema drift can't blind the gate;
  * a top-level "metrics" entry ending in "_speedup" (higher is better,
    e.g. the scalar-vs-SIMD kernel ratios) drops below
    baseline * (1 - --rate-tol), or is present in the baseline but
    missing from the current file;
  * a --metric-floor NAME=VALUE requirement is violated: the named
    metric must be present somewhere in the current results and be
    >= VALUE. Floors are absolute contracts (e.g. "the SIMD wirelength
    kernel stays at least 2x faster than its scalar twin"), independent
    of whatever the baseline happened to record.

New runs (present now, absent from the baseline) are reported but do not
fail the gate, so adding a bench doesn't require a lockstep baseline
update. Exit status: 0 clean, 1 regressions found, 2 usage/IO error.

--refresh rewrites the baseline instead of gating: every BENCH_*.json in
--current is schema-validated and copied into --baseline, and baseline
files whose bench no longer produces output are deleted. Use it when a
deliberate performance or protocol change moves the numbers.

Usage:
  check_bench_regression.py --baseline ci/bench-baseline --current out/
  check_bench_regression.py --baseline ... --current ... --time-tol 0.2
  check_bench_regression.py --baseline ci/bench-baseline --current out/ \
      --refresh
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "aplace-bench-v1"


def load_runs(
    directory: Path,
) -> tuple[dict[tuple[str, str, str], dict], dict[tuple[str, str], float]]:
    """Load every BENCH_*.json in a directory.

    Returns (runs, metrics): runs maps (bench, circuit, flow) -> run
    record, metrics maps (bench, metric_name) -> value for the top-level
    "metrics" object of each file.
    """
    runs: dict[tuple[str, str, str], dict] = {}
    metrics: dict[tuple[str, str], float] = {}
    files = sorted(directory.glob("BENCH_*.json"))
    if not files:
        raise FileNotFoundError(f"no BENCH_*.json files in {directory}")
    for path in files:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"{path}: unexpected schema {doc.get('schema')!r}")
        bench = doc["bench"]
        for run in doc.get("runs", []):
            key = (bench, run["circuit"], run["flow"])
            if key in runs:
                raise ValueError(f"{path}: duplicate run {key}")
            runs[key] = run
        for name, value in doc.get("metrics", {}).items():
            metrics[(bench, name)] = value
    return runs, metrics


def check(
    baseline: dict[tuple[str, str, str], dict],
    current: dict[tuple[str, str, str], dict],
    time_tol: float,
    time_slack: float,
    quality_tol: float,
    rate_tol: float,
) -> list[str]:
    failures: list[str] = []
    for key, base in sorted(baseline.items()):
        name = "/".join(key)
        cur = current.get(key)
        if cur is None:
            failures.append(f"{name}: run missing from current results")
            continue

        # The flow rows' stage split (global / detailed placement) is gated
        # like the wall time, wherever the baseline row carries it.
        for metric in ("wall_seconds", "gp_seconds", "dp_seconds"):
            bt, ct = base.get(metric), cur.get(metric)
            if bt is not None and ct is None:
                failures.append(
                    f"{name}: {metric} present in baseline but missing "
                    f"from current run"
                )
            elif bt is not None:
                limit = bt * (1.0 + time_tol) + time_slack
                if ct > limit:
                    failures.append(
                        f"{name}: {metric} {ct:.3f}s > {limit:.3f}s "
                        f"(baseline {bt:.3f}s, tol {time_tol:.0%} + "
                        f"{time_slack}s)"
                    )

        for metric in ("hpwl", "area"):
            bv, cv = base.get(metric), cur.get(metric)
            # Timing-only rows carry 0 quality; skip them. A baseline value
            # with no current counterpart is a hard failure, not a skip.
            if not bv:
                continue
            if cv is None:
                failures.append(
                    f"{name}: {metric} present in baseline but missing "
                    f"from current run"
                )
                continue
            if cv > bv * (1.0 + quality_tol):
                failures.append(
                    f"{name}: {metric} {cv:.4g} worse than baseline "
                    f"{bv:.4g} (+{(cv / bv - 1):.1%}, tol {quality_tol:.0%})"
                )

        br, cr = base.get("moves_per_sec"), cur.get("moves_per_sec")
        if br and cr is None:
            failures.append(
                f"{name}: moves_per_sec present in baseline but missing "
                f"from current run"
            )
        elif br:
            floor = br * (1.0 - rate_tol)
            if cr < floor:
                failures.append(
                    f"{name}: moves_per_sec {cr:.0f} < {floor:.0f} "
                    f"(baseline {br:.0f}, tol {rate_tol:.0%})"
                )

        if base.get("legal") and not cur.get("legal"):
            failures.append(f"{name}: was legal in baseline, now illegal")
        if base.get("ok") and not cur.get("ok"):
            failures.append(f"{name}: was ok in baseline, now failed")

    for key in sorted(set(current) - set(baseline)):
        print(f"note: new run not in baseline: {'/'.join(key)}")
    return failures


def check_metrics(
    baseline: dict[tuple[str, str], float],
    current: dict[tuple[str, str], float],
    rate_tol: float,
    floors: dict[str, float],
) -> list[str]:
    """Gate the top-level per-bench metrics objects."""
    failures: list[str] = []
    for (bench, metric), bv in sorted(baseline.items()):
        if not metric.endswith("_speedup"):
            continue
        name = f"{bench}/metrics/{metric}"
        cv = current.get((bench, metric))
        if cv is None:
            failures.append(
                f"{name}: present in baseline but missing from current "
                f"results"
            )
            continue
        floor = bv * (1.0 - rate_tol)
        if cv < floor:
            failures.append(
                f"{name}: speedup {cv:.2f}x < {floor:.2f}x "
                f"(baseline {bv:.2f}x, tol {rate_tol:.0%})"
            )

    by_name = {metric: value for (_, metric), value in current.items()}
    for metric, floor in sorted(floors.items()):
        cv = by_name.get(metric)
        if cv is None:
            failures.append(
                f"metric floor {metric}>={floor:g}: metric missing from "
                f"current results"
            )
        elif cv < floor:
            failures.append(
                f"metric floor violated: {metric} = {cv:.2f} < {floor:g}"
            )
    return failures


def refresh(baseline_dir: Path, current_dir: Path) -> int:
    """Rewrite the baseline from the current results (deliberate rebase)."""
    files = sorted(current_dir.glob("BENCH_*.json"))
    if not files:
        print(f"error: no BENCH_*.json files in {current_dir}",
              file=sys.stderr)
        return 2
    # Validate before touching the baseline so a half-written current
    # directory can't wipe a good one.
    for path in files:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("schema") != SCHEMA:
            print(f"error: {path}: unexpected schema {doc.get('schema')!r}",
                  file=sys.stderr)
            return 2
    baseline_dir.mkdir(parents=True, exist_ok=True)
    fresh_names = {p.name for p in files}
    for stale in sorted(baseline_dir.glob("BENCH_*.json")):
        if stale.name not in fresh_names:
            stale.unlink()
            print(f"removed stale baseline {stale.name}")
    for path in files:
        (baseline_dir / path.name).write_bytes(path.read_bytes())
        print(f"refreshed {path.name}")
    print(f"baseline {baseline_dir} now tracks {len(files)} bench file(s)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--current", required=True, type=Path)
    parser.add_argument("--time-tol", type=float, default=0.15,
                        help="relative wall-time tolerance (default 0.15)")
    parser.add_argument("--time-slack", type=float, default=0.1,
                        help="absolute wall-time slack in seconds "
                        "(default 0.1)")
    parser.add_argument("--quality-tol", type=float, default=0.02,
                        help="relative HPWL/area tolerance (default 0.02)")
    parser.add_argument("--rate-tol", type=float, default=0.35,
                        help="relative throughput-rate tolerance; rates are "
                        "higher-is-better (default 0.35)")
    parser.add_argument("--metric-floor", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="absolute floor for a top-level metric; the "
                        "metric must exist and be >= VALUE (repeatable)")
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite --baseline from --current instead of "
                        "gating (validates schemas, prunes stale files)")
    args = parser.parse_args()

    if args.refresh:
        return refresh(args.baseline, args.current)

    floors: dict[str, float] = {}
    for spec in args.metric_floor:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            print(f"error: bad --metric-floor {spec!r} (want NAME=VALUE)",
                  file=sys.stderr)
            return 2
        try:
            floors[name] = float(value)
        except ValueError:
            print(f"error: bad --metric-floor value {spec!r}",
                  file=sys.stderr)
            return 2

    try:
        baseline, base_metrics = load_runs(args.baseline)
        current, cur_metrics = load_runs(args.current)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failures = check(baseline, current, args.time_tol, args.time_slack,
                     args.quality_tol, args.rate_tol)
    failures += check_metrics(base_metrics, cur_metrics, args.rate_tol,
                              floors)
    print(f"checked {len(baseline)} baseline runs against "
          f"{len(current)} current runs")
    if failures:
        print(f"\n{len(failures)} regression(s):")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
