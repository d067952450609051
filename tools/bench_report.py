#!/usr/bin/env python
"""Condense pytest-benchmark JSON into a committed ``BENCH_*.json``.

Usage::

    python -m pytest benchmarks/test_batch_fluid.py \
        --benchmark-json bench_raw.json
    python tools/bench_report.py bench_raw.json -o BENCH_fluid.json \
        [--min-speedup 1.0]

Several raw dumps can be merged into one report (kernel entries from
later files never clobber earlier ones; duplicate benchmark names keep
the first occurrence and warn)::

    python tools/bench_report.py fluid_raw.json packet_raw.json \
        -o BENCH_all.json

The raw pytest-benchmark dump is noisy and machine-heavy; the report
keeps what the perf trajectory needs:

* per-kernel mean/stddev wall time and, for workloads that tag
  ``extra_info["trajectory_seconds"]`` (fluid integrations) or
  ``extra_info["simulated_seconds"]`` (packet-level runs), the
  throughput figures **ns per integrated trajectory-second** / **ns per
  simulated second**;
* per-workload speedups, pairing the fast row (``engine="batch"`` for
  the fluid kernel, ``engine="batched"`` for the packet engine,
  ``engine="sharded"`` for the fabric, ``engine="warm"`` for the job
  server's cached path) against the row of the same
  ``extra_info["workload"]`` tagged ``extra_info["baseline"] = True``.
  The baseline is named explicitly rather than inferred from an engine
  label, because one engine can be its own baseline (the batched
  engine's compiled kernel tier against its numpy tier, told apart by
  ``extra_info["kernel_backend"]``).  Each speedup records the kernel
  names it paired (``fast``/``baseline``).  Workloads without a
  baseline row, or whose other rows carry no fast engine tag, are
  reported but never gated;
* per-workload **event counts** for benchmarks that tag
  ``extra_info["event_counts"]`` (the observability layer's per-kind
  totals), so BENCH JSONs record what the run *did*, not just how fast;
* per-workload **observability overheads** for benchmarks that tag
  ``extra_info["obs_overhead"]`` (interleaved per-variant minimum wall
  times, keys ``baseline_s`` / ``obs_disabled_s`` / ``obs_enabled_s``):
  the relative cost of each variant against the baseline.  The variants
  are interleaved inside one benchmark because separate per-variant
  blocks drift apart by far more than the 2% being gated.

Exits non-zero when any workload's fast engine is slower than
``--min-speedup`` × the reference, or (with ``--max-overhead``) when
any workload's ``obs_disabled`` variant exceeds the baseline by more
than that fraction — how the CI ``bench`` job fails on a regression
while absorbing shared-runner noise (the committed report itself is
regenerated on quiet hardware).

``--validate`` flips the tool into schema-check mode: the positional
arguments are then committed ``BENCH_*.json`` reports, each checked
against the schema this script declares (required keys, value types,
engine tags, derived-figure consistency, event kinds against
``repro.obs.EVENT_KINDS`` when importable)::

    python tools/bench_report.py --validate BENCH_*.json

This is the CI guard against hand-edited or stale reports: a committed
report whose ``speedup`` no longer matches ``reference_s / batch_s``,
whose paired kernels are missing, untagged as the baseline or disagree
with the recorded wall times, or that records an unknown engine tag or
event kind, fails the lint job rather than silently mis-documenting the
perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["build_report", "main"]

#: engine tags paired against the baseline row for the speedup/gate
#: section (listed fastest-first: when a workload carries several fast
#: rows the earliest present tag is the one gated)
_FAST_ENGINES = ("sharded", "batch", "batched", "warm")


def _kernel_entry(bench: dict) -> dict:
    stats = bench["stats"]
    extra = dict(bench.get("extra_info", {}))
    entry = {
        "mean_s": stats["mean"],
        "min_s": stats["min"],
        "stddev_s": stats["stddev"],
        "rounds": stats["rounds"],
        "extra_info": extra,
    }
    traj_seconds = extra.get("trajectory_seconds")
    if traj_seconds:
        entry["ns_per_trajectory_second"] = stats["mean"] / traj_seconds * 1e9
    sim_seconds = extra.get("simulated_seconds")
    if sim_seconds:
        entry["ns_per_simulated_second"] = stats["mean"] / sim_seconds * 1e9
    return entry


def _pair(rows: list[tuple[str, dict]]):
    """``((fast_name, fast), (baseline_name, baseline))`` for one
    workload's rows, or None when it has no baseline or no fast row."""
    baselines = [row for row in rows if row[1]["extra_info"].get("baseline")]
    if not baselines:
        return None
    others = [row for row in rows if row is not baselines[0]]
    for engine in _FAST_ENGINES:
        for row in others:
            if row[1]["extra_info"]["engine"] == engine:
                return row, baselines[0]
    return None


def build_report(raws: dict | list[dict]) -> dict:
    """Build the condensed report from one or more benchmark dumps."""
    if isinstance(raws, dict):
        raws = [raws]
    kernels = {}
    by_workload: dict[str, list[tuple[str, dict]]] = {}
    overheads: dict[str, dict[str, float]] = {}
    events: dict[str, dict[str, dict]] = {}
    for raw in raws:
        for bench in raw.get("benchmarks", []):
            name = bench["name"]
            if name in kernels:
                print(f"warning: duplicate benchmark {name!r}; "
                      "keeping the first occurrence", file=sys.stderr)
                continue
            entry = _kernel_entry(bench)
            kernels[name] = entry
            extra = entry["extra_info"]
            workload, engine = extra.get("workload"), extra.get("engine")
            if workload and engine:
                by_workload.setdefault(workload, []).append((name, entry))
            counts = extra.get("event_counts")
            if workload and counts:
                events.setdefault(workload, {})[engine or "-"] = counts
            mins = extra.get("obs_overhead")
            if workload and mins and "baseline_s" in mins:
                row = {"baseline_s": mins["baseline_s"]}
                for key, wall in sorted(mins.items()):
                    if key == "baseline_s" or not key.endswith("_s"):
                        continue
                    row[key] = wall
                    row[f"{key[:-2]}_overhead"] = (
                        wall / mins["baseline_s"] - 1.0)
                overheads[workload] = row

    speedups = {}
    for workload, rows in sorted(by_workload.items()):
        pair = _pair(rows)
        if pair is not None:
            (fast_name, fast), (base_name, base) = pair
            speedups[workload] = {
                "batch_s": fast["mean_s"],
                "fast_engine": fast["extra_info"]["engine"],
                "fast": fast_name,
                "baseline": base_name,
                "reference_s": base["mean_s"],
                "speedup": base["mean_s"] / fast["mean_s"],
            }

    first = raws[0] if raws else {}
    machine = first.get("machine_info", {})
    return {
        "generated_by": "tools/bench_report.py",
        "source_datetime": first.get("datetime"),
        "machine": {
            key: machine.get(key)
            for key in ("node", "processor", "machine", "python_version",
                        "cpu")
            if key in machine
        },
        "kernels": kernels,
        "speedups": speedups,
        "events": events,
        "overheads": overheads,
    }


#: Required numeric fields of every ``kernels`` entry.
_KERNEL_FIELDS = ("mean_s", "min_s", "stddev_s", "rounds")

#: Required fields of every ``speedups`` entry.
_SPEEDUP_FIELDS = ("batch_s", "fast_engine", "reference_s", "speedup")

#: Relative tolerance for derived figures recorded in a report.
_DERIVED_RTOL = 1e-6


def _event_kinds() -> frozenset[str] | None:
    """The registered event-kind vocabulary, or None off-tree."""
    try:
        from repro.obs.trace import EVENT_KINDS
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        try:
            from repro.obs.trace import EVENT_KINDS
        except ImportError:
            return None
    return EVENT_KINDS


def _drifted(recorded: float, expected: float) -> bool:
    return abs(recorded - expected) > _DERIVED_RTOL * max(
        abs(recorded), abs(expected), 1e-12)


def validate_report(doc: object, label: str = "report") -> list[str]:
    """Check one committed report against the declared schema.

    Returns human-readable problem strings (empty when the report is
    schema-clean and internally consistent).
    """
    problems: list[str] = []

    def err(message: str) -> None:
        problems.append(f"{label}: {message}")

    if not isinstance(doc, dict):
        return [f"{label}: top level must be a JSON object"]
    # events/overheads arrived later; reports generated before those
    # sections existed stay valid with them absent.
    for key in ("generated_by", "kernels", "speedups"):
        if key not in doc:
            err(f"missing required key {key!r}")
    if problems:
        return problems
    if doc["generated_by"] != "tools/bench_report.py":
        err(f"generated_by is {doc['generated_by']!r}, not this tool")

    kernels = doc["kernels"]
    if not isinstance(kernels, dict):
        err("kernels must be an object")
        kernels = {}
    for name, entry in kernels.items():
        if not isinstance(entry, dict):
            err(f"kernels[{name!r}] must be an object")
            continue
        for field in _KERNEL_FIELDS:
            value = entry.get(field)
            # min_s arrived after the first committed reports; absent
            # or null stays valid there.
            if value is None and field == "min_s":
                continue
            if not isinstance(value, (int, float)) or value < 0:
                err(f"kernels[{name!r}].{field} must be a non-negative "
                    f"number, got {value!r}")
        if not isinstance(entry.get("extra_info"), dict):
            err(f"kernels[{name!r}].extra_info must be an object")

    speedups = doc["speedups"]
    if not isinstance(speedups, dict):
        err("speedups must be an object")
        speedups = {}
    for workload, row in speedups.items():
        if not isinstance(row, dict):
            err(f"speedups[{workload!r}] must be an object")
            continue
        # fast_engine arrived after the first committed reports; the
        # legacy rows implicitly gated batch vs reference.
        missing = [f for f in _SPEEDUP_FIELDS
                   if f not in row and f != "fast_engine"]
        if missing:
            err(f"speedups[{workload!r}] missing {', '.join(missing)}")
            continue
        if "fast_engine" in row and row["fast_engine"] not in _FAST_ENGINES:
            err(f"speedups[{workload!r}].fast_engine "
                f"{row['fast_engine']!r} is not one of "
                f"{', '.join(_FAST_ENGINES)}")
        batch_s, reference_s = row["batch_s"], row["reference_s"]
        if not (isinstance(batch_s, (int, float)) and batch_s > 0
                and isinstance(reference_s, (int, float))
                and reference_s > 0):
            err(f"speedups[{workload!r}] wall times must be positive "
                "numbers")
            continue
        if _drifted(row["speedup"], reference_s / batch_s):
            err(f"speedups[{workload!r}].speedup {row['speedup']:.6g} "
                f"drifted from reference_s/batch_s = "
                f"{reference_s / batch_s:.6g}; regenerate the report")
        # Reports predating the explicit pairing carry no kernel names.
        if "baseline" in row or "fast" in row:
            for role, wall_key, want_baseline in (
                    ("baseline", "reference_s", True),
                    ("fast", "batch_s", False)):
                entry = kernels.get(row.get(role))
                if not isinstance(entry, dict):
                    err(f"speedups[{workload!r}].{role} "
                        f"{row.get(role)!r} names no kernel entry")
                    continue
                extra = entry.get("extra_info", {})
                if extra.get("workload") != workload:
                    err(f"speedups[{workload!r}].{role} "
                        f"{row[role]!r} belongs to workload "
                        f"{extra.get('workload')!r}")
                if bool(extra.get("baseline")) != want_baseline:
                    err(f"speedups[{workload!r}].{role} {row[role]!r} "
                        f"{'lacks' if want_baseline else 'carries'} "
                        "extra_info.baseline")
                if _drifted(row[wall_key], entry.get("mean_s", 0.0)):
                    err(f"speedups[{workload!r}].{wall_key} differs from "
                        f"kernels[{row[role]!r}].mean_s; regenerate the "
                        "report")

    events = doc.get("events", {})
    kinds = _event_kinds()
    if not isinstance(events, dict):
        err("events must be an object")
        events = {}
    for workload, engines in events.items():
        if not isinstance(engines, dict):
            err(f"events[{workload!r}] must be an object")
            continue
        for engine, counts in engines.items():
            if not isinstance(counts, dict):
                err(f"events[{workload!r}][{engine!r}] must be an object")
                continue
            for kind, count in counts.items():
                if not isinstance(count, int) or count < 0:
                    err(f"events[{workload!r}][{engine!r}][{kind!r}] "
                        f"must be a non-negative integer, got {count!r}")
                if kinds is not None and kind not in kinds:
                    err(f"events[{workload!r}][{engine!r}] records "
                        f"unknown event kind {kind!r} (not in "
                        "repro.obs.EVENT_KINDS)")

    overheads = doc.get("overheads", {})
    if not isinstance(overheads, dict):
        err("overheads must be an object")
        overheads = {}
    for workload, row in overheads.items():
        if not isinstance(row, dict):
            err(f"overheads[{workload!r}] must be an object")
            continue
        baseline = row.get("baseline_s")
        if not isinstance(baseline, (int, float)) or baseline <= 0:
            err(f"overheads[{workload!r}].baseline_s must be a positive "
                f"number, got {baseline!r}")
            continue
        for key, wall in row.items():
            if key == "baseline_s" or not key.endswith("_s"):
                continue
            overhead_key = f"{key[:-2]}_overhead"
            if overhead_key not in row:
                err(f"overheads[{workload!r}] has {key} but no "
                    f"{overhead_key}")
                continue
            if _drifted(row[overhead_key], wall / baseline - 1.0):
                err(f"overheads[{workload!r}].{overhead_key} "
                    f"{row[overhead_key]:.6g} drifted from "
                    f"{key}/baseline_s - 1 = {wall / baseline - 1.0:.6g}; "
                    "regenerate the report")

    return problems


def _cmd_validate(paths: list[Path]) -> int:
    failed = False
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            failed = True
            continue
        problems = validate_report(doc, label=str(path))
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            failed = True
        else:
            n = len(doc.get("kernels", {}))
            print(f"{path}: ok ({n} kernel entries, "
                  f"{len(doc.get('speedups', {}))} gated workloads)")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("raw", type=Path, nargs="+",
                        help="pytest-benchmark --benchmark-json output(s); "
                             "multiple files merge into one report")
    parser.add_argument("-o", "--output", type=Path,
                        default=Path("BENCH_fluid.json"))
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail when any workload's fast/reference "
                             "speedup drops below this (default: 1.0)")
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail when any workload's obs_disabled "
                             "variant exceeds the baseline by more than "
                             "this fraction (e.g. 0.02 for 2%%)")
    parser.add_argument("--validate", action="store_true",
                        help="treat the positional arguments as "
                             "committed BENCH_*.json reports and check "
                             "them against the declared schema")
    args = parser.parse_args(argv)

    if args.validate:
        return _cmd_validate(args.raw)

    report = build_report([json.loads(p.read_text()) for p in args.raw])
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    failed = False
    for workload, row in report["speedups"].items():
        verdict = "ok"
        if row["speedup"] < args.min_speedup:
            verdict = f"REGRESSION (< {args.min_speedup:g}x)"
            failed = True
        print(f"{workload}: {row['fast']} {row['batch_s']:.4f}s vs "
              f"baseline {row['baseline']} {row['reference_s']:.4f}s -> "
              f"{row['speedup']:.2f}x {verdict}")
    if not report["speedups"]:
        print("warning: no fast/reference workload pairs found",
              file=sys.stderr)
    for workload, row in report["overheads"].items():
        for variant in sorted(k[:-len("_overhead")] for k in row
                              if k.endswith("_overhead")):
            overhead = row[f"{variant}_overhead"]
            verdict = ""
            if (args.max_overhead is not None and variant == "obs_disabled"
                    and overhead > args.max_overhead):
                verdict = f" REGRESSION (> {args.max_overhead:.1%})"
                failed = True
            print(f"{workload}: {variant} {row[f'{variant}_s']:.4f}s vs "
                  f"baseline {row['baseline_s']:.4f}s -> "
                  f"{overhead:+.2%} overhead{verdict}")
    if args.max_overhead is not None and not report["overheads"]:
        print("warning: --max-overhead given but no variant-tagged "
              "workloads found", file=sys.stderr)
    print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
