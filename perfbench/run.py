"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``perfbench/README.md``) from the root of a
source checkout, checks its outputs, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from the outside-in tracer.  Earlier lines give the workload's
own metric names, the provenance of the run and any failed check.
Every time is read on the reference clock of ``refclock.py``, which
divides wall time by the slowdown it samples on the CPU the run is
pinned to.

Before anything is timed the cffi kernels are built into
``.bench_build/kernels`` (a first build takes a few seconds), and the
run refuses to report if the kernel tier it loaded differs from the
one recorded in ``perfbench/manifest.json``.  The exit code is 0 when
every check passed, 1 when a check failed, and 2 or 3 when the run
could not be made (no source tree, wrong kernel tier).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
BUILD = ROOT / ".bench_build"

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s",
             "slow_path_ms": "ms", "fast_path_ms": "ms"}


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the package sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def build_kernels() -> str:
    """Build/load the kernel backend in a child; returns its tier name."""
    from workloads import child_env

    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), "kernels"],
        env=child_env(), capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(3)
    return done.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the workloads' ``finally``
    # blocks stop the processes they started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    manifest = json.loads((PERFBENCH / "manifest.json").read_text())

    # Everything the run and its children write stays in the checkout,
    # compiler and tempfile scratch included.
    os.environ["REPRO_KERNEL_BUILD_DIR"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    tier = build_kernels()
    if tier != manifest["kernel_tier"]:
        print(f"perfbench: kernel tier {tier!r} differs from the recorded "
              f"{manifest['kernel_tier']!r}; refusing to compare",
              file=sys.stderr)
        return 3

    import numpy
    from layers import UNITS
    from refclock import CLOCK
    from workloads import WORKLOADS, Context, share_one_cpu

    work_dir = BUILD / "perfbench" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), work_dir=work_dir)
    # The children whose time is measured (set-up probes, the server)
    # share this process's CPU, where the clock samples its speed.
    share_one_cpu()
    try:
        with CLOCK.running():
            wall0, ref0 = time.perf_counter(), CLOCK.now()
            outcome = WORKLOADS[args.workload](ctx)
            ref_per_wall = ((CLOCK.now() - ref0)
                            / (time.perf_counter() - wall0))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e = {"setup_s": median(outcome.setup_s), "peak_rss_mb": peak_rss_mb(),
           **outcome.e2e}
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engines": outcome.engines,
        "kernel_tier": tier,
        "clock": {"samples": CLOCK.samples,
                  "ref_per_wall": round(ref_per_wall, 4)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    failed = len(outcome.failures)
    named = {**{k: {"value": v, "unit": u}
                for k, (v, u) in outcome.named.items()},
             "fail_frac": {"value": failed / outcome.attempted,
                           "unit": "ratio"}}
    for failure in outcome.failures[:20]:
        print(f"FAILED CHECK: {failure}")
    for name, metric in named.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"setup_s = {e2e['setup_s']:.6g} s "
          f"(median of {len(outcome.setup_s)} set-ups)")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB")
    if outcome.per_layer is not None:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in outcome.per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    record = {"provenance": provenance, "named": named, "e2e": e2e,
              "per_layer": outcome.per_layer, "failures": outcome.failures}
    print(json.dumps({"run": record}))
    (BUILD / "perfbench").mkdir(parents=True, exist_ok=True)
    with open(BUILD / "perfbench" / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if ctx.trace:
        ctx.tracer.dump(BUILD / "perfbench"
                        / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
