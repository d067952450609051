"""The four benchmark workloads.

Each workload is a function ``(ctx) -> Outcome``.  It generates its
inputs from ``ctx.seed``, measures passes for ``ctx.seconds`` with
tracing off, checks the outputs, and — when ``ctx.trace`` is set —
splits the time into an untraced phase and a traced phase so that the
tracing overhead is measured in the same run.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import layers
from refclock import now
from tracer import Tracer, load_dump

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent

#: Paper-repro split: packet-engine experiments vs analytic/fluid ones.
PACKET_IDS = frozenset({"v2", "v3", "v5", "v6", "m1", "s1"})

#: The regression suite's golden-series tolerance
#: (tests/regression/test_golden_series.py).
GOLDEN_RTOL, GOLDEN_ATOL = 1e-7, 1e-12

SCENARIO_SEEDS = 12         # seeds per preset in one scenario-sweep pass
FABRIC_K = 8                # fat_tree(k)
FABRIC_DURATION = 0.15e-3   # simulated seconds per fabric run
FABRIC_SHARDS, FABRIC_WORKERS = 8, 2
FABRIC_TOLERANCE = 0.05     # sharded vs serial delivery (documented 5%)
SERVE_COLD_EVERY = 4        # jobs per round; one of them is cold
SETUP_REPEATS = 3
ALL_CPUS = frozenset(os.sched_getaffinity(0))


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work_dir: Path
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float]
    engines: list[str]
    #: e2e metric name -> value (pass_s, slow_path_ms, fast_path_ms)
    e2e: dict[str, float] = field(default_factory=dict)
    #: the workload's own metric names -> (value, unit)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    per_layer: dict | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- helpers ------------------------------------------------------------------


def share_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU."""
    os.sched_setaffinity(0, {min(ALL_CPUS)})


def child_env() -> dict:
    """Environment for child processes: the source tree on the path and
    the kernel build directory the parent already populated."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def time_probe(kind: str) -> float:
    """Reference seconds of one fresh set-up in a child process."""
    start = now()
    subprocess.run([sys.executable, str(PERFBENCH / "probe.py"), kind],
                   env=child_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return now() - start


def steady(passes: list) -> list:
    """Drop the first (warm-up) pass when enough passes remain."""
    return passes[1:] if len(passes) >= 3 else passes


def run_passes(seconds: float, one_pass: Callable[[int], dict]) -> list[dict]:
    """Run ``one_pass(i)`` until ``seconds`` have elapsed (at least once)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass(len(passes)))
    return passes


def measure(ctx: Context, outcome: Outcome, one_pass: Callable[[int], dict],
            slow_name: str, fast_name: str) -> None:
    """Repeat ``one_pass`` for ``ctx.seconds`` and fill in ``outcome``.

    Traced, the first half of the time runs untraced and the second half
    under the tracer; the overhead compares their median ``pass_s``.
    """
    if ctx.trace:
        passes = run_passes(ctx.seconds / 2, one_pass)
        layers.install(ctx.tracer)
        try:
            traced = run_passes(ctx.seconds / 2, one_pass)
        finally:
            ctx.tracer.uninstall()
        overhead = (median(p["pass_s"] for p in steady(traced))
                    / median(p["pass_s"] for p in steady(passes)) - 1.0)
        outcome.per_layer = layers.layer_metrics(
            trace_sources(ctx), serve=None, overhead_frac=overhead)
    else:
        passes = run_passes(ctx.seconds, one_pass)
    outcome.e2e = {k: median(p[k] for p in steady(passes))
                   for k in ("pass_s", "slow_path_ms", "fast_path_ms")}
    outcome.named = {slow_name: (outcome.e2e["slow_path_ms"] / 1e3, "s"),
                     fast_name: (outcome.e2e["fast_path_ms"] / 1e3, "s")}


def load_backend(ctx: Context):
    """First kernel-backend load in this process (traced as load_s)."""
    if ctx.trace:
        layers.install(ctx.tracer)
    try:
        from repro.kernels import get_backend
        return get_backend()
    finally:
        ctx.tracer.uninstall()


def trace_sources(ctx: Context) -> list:
    return [(ctx.tracer.spans, ctx.tracer.counts)]


# -- paper-repro --------------------------------------------------------------


def _load_csv(path: Path):
    import numpy as np

    lines = path.read_text().strip().splitlines()
    names = lines[0].split(",")
    rows = [[float(c) if c else np.nan for c in line.split(",")]
            for line in lines[1:]]
    data = np.array(rows, dtype=float)
    return {name: data[:, i] for i, name in enumerate(names)}


def golden_mismatch(result, out_dir: Path) -> str | None:
    """Why ``result``'s series differ from ``series_out/``, or None."""
    import numpy as np

    fresh_path = result.save_series(out_dir)
    if fresh_path is None:
        return "no series written"
    fresh = _load_csv(fresh_path)
    golden = _load_csv(ROOT / "series_out" / fresh_path.name)
    if list(fresh) != list(golden):
        return "column set changed"
    for column, g in golden.items():
        f = fresh[column]
        if f.shape != g.shape or not np.array_equal(np.isnan(f),
                                                    np.isnan(g)):
            return f"{column}: shape or NaN padding changed"
        mask = ~np.isnan(g)
        if not np.allclose(f[mask], g[mask], rtol=GOLDEN_RTOL,
                           atol=GOLDEN_ATOL):
            return f"{column}: drifted from the golden series"
    return None


def untraced_pass_s(workload: str, seed: int) -> float:
    """``pass_s`` of an untraced run of ``workload`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last["metrics"]["pass_s"]["value"]


def paper_repro(ctx: Context) -> Outcome:
    """All 18 experiments, default options, one process, no cache.

    One pass per run, whatever ``ctx.seconds`` says (a pass takes longer
    than a run's measuring time): a second pass in the same process
    would find the integrators' caches warm, which a user's run never
    does.  Traced, the pass runs under the tracer and its overhead is
    taken against an untraced run in a fresh process.  The paper's
    parameters are fixed, so the seed changes nothing here.
    """
    setup = [time_probe("experiments") for _ in range(SETUP_REPEATS)]
    import repro.experiments  # noqa: F401 — registers the experiments
    from repro.runner import RunnerStats, run_experiments

    load_backend(ctx)
    golden_ids = {p.stem for p in (ROOT / "series_out").glob("*.csv")}
    outcome = Outcome(setup, engines=["experiment defaults"])
    stamps: list[tuple[str, float]] = []

    class StampedStats(RunnerStats):
        """Notes the reference clock as each experiment is recorded."""

        def record(self, label, wall, **kwargs):
            stamps.append((label, now()))
            super().record(label, wall, **kwargs)

    def one_pass(_i: int) -> dict:
        stamps.clear()
        start = now()
        results = run_experiments(workers=1, cache=None,
                                  stats=StampedStats())
        wall = now() - start
        # Experiments run one after another: each one's time is the
        # time since the previous one was recorded.
        ends = [start] + [t for _, t in stamps]
        walls = {label: ends[i + 1] - ends[i]
                 for i, (label, _) in enumerate(stamps)}
        out_dir = Path(tempfile.mkdtemp(dir=ctx.work_dir))
        for eid, result in results:
            outcome.check(result.passed,
                          f"{eid}: verdicts {result.failing_verdicts()}")
            if eid in golden_ids:
                why = golden_mismatch(result, out_dir)
                outcome.check(why is None, f"{eid}: {why}")
        shutil.rmtree(out_dir)
        return {
            "pass_s": wall,
            "slow_path_ms": 1e3 * sum(w for e, w in walls.items()
                                  if e in PACKET_IDS),
            "fast_path_ms": 1e3 * sum(w for e, w in walls.items()
                                  if e not in PACKET_IDS),
        }

    if ctx.trace:
        layers.install(ctx.tracer)
        try:
            e2e = one_pass(0)
        finally:
            ctx.tracer.uninstall()
        outcome.engines = sorted({s.name for s in ctx.tracer.spans
                                  if s.name.startswith("simulation.")})
        untraced = untraced_pass_s("paper-repro", ctx.seed)
        outcome.per_layer = layers.layer_metrics(
            trace_sources(ctx), serve=None,
            overhead_frac=e2e["pass_s"] / untraced - 1.0)
    else:
        e2e = one_pass(0)
    outcome.e2e = e2e
    outcome.named = {
        "repro_s": (e2e["pass_s"], "s"),
        "repro_packet_s": (e2e["slow_path_ms"] / 1e3, "s"),
        "repro_fluid_s": (e2e["fast_path_ms"] / 1e3, "s"),
    }
    return outcome


# -- scenario-sweep -----------------------------------------------------------


def _same_result(a, b) -> bool:
    """Bit-identity of two ScenarioResults (series, counters, flows)."""
    import numpy as np

    sa, sb = a.sim, b.sim
    arrays = ("t", "queue", "rate_t", "rate_total", "per_source_rate")
    scalars = ("dropped_frames", "forwarded_frames", "bcn_negative",
               "bcn_positive", "pauses", "delivered_bits")
    return (all(np.array_equal(getattr(sa, n), getattr(sb, n))
                for n in arrays)
            and all(getattr(sa, n) == getattr(sb, n) for n in scalars)
            and a.flows == b.flows
            and a.injected_bits == b.injected_bits
            and a.dropped_bits == b.dropped_bits)


def scenario_sweep(ctx: Context) -> Outcome:
    """Six presets x seeds through run_scenario on batched and compiled."""
    setup = [time_probe("scenarios") for _ in range(SETUP_REPEATS)]
    import repro.scenarios as scenarios   # looked up per call: traceable
    from repro.scenarios import get_preset, preset_names

    backend = load_backend(ctx)
    rng = random.Random(ctx.seed)
    seeds = rng.sample(range(1 << 20), SCENARIO_SEEDS)
    inputs = [get_preset(name, s) for name in preset_names() for s in seeds]
    outcome = Outcome(setup, engines=["batched", f"compiled:{backend.name}"])

    def one_pass(i: int) -> dict:
        order = ("batched", "compiled") if i % 2 == 0 else ("compiled",
                                                           "batched")
        walls, results = {}, {}
        for engine in order:
            start = now()
            results[engine] = [scenarios.run_scenario(s, engine=engine)
                               for s in inputs]
            walls[engine] = now() - start
        for scenario, bat, com in zip(inputs, results["batched"],
                                      results["compiled"]):
            tag = f"{scenario.name}[{scenario.seed}]"
            outcome.check(_same_result(bat, com),
                          f"{tag}: compiled differs from batched")
            slack = (bat.sim.per_source_rate.size + 2) * scenario.frame_bits
            for res in (bat, com):
                outcome.check(abs(res.conservation_error()) <= slack,
                              f"{tag}/{res.engine}: conservation error "
                              f"{res.conservation_error()}")
        return {"pass_s": walls["batched"] + walls["compiled"],
                "slow_path_ms": 1e3 * walls["batched"],
                "fast_path_ms": 1e3 * walls["compiled"]}

    measure(ctx, outcome, one_pass, "scenario_batched_s",
            "scenario_compiled_s")
    return outcome


# -- fabric -------------------------------------------------------------------


def host_order(seed: int) -> list[int]:
    """Indices into the sorted host list of ``fat_tree(8)``, pods
    interleaved in a seeded order: position ``8 * j + s`` is host ``j``
    of the ``s``-th pod drawn.  ``permutation`` then sends every host to
    the same host slot of the next pods in that order, so every flow
    crosses pods (and shards), and every seed is the same pattern up to
    a relabelling of the pods."""
    n_pods = FABRIC_K
    per_pod = FABRIC_K ** 2 // 4
    pods = list(range(n_pods))
    random.Random(seed).shuffle(pods)
    return [pod * per_pod + j for j in range(per_pod) for pod in pods]


def _fabric_run(order: list[int], **kwargs):
    """fat_tree(8) + permutation traffic, built and run (timed as one)."""
    from repro.simulation.multihop import MultiHopNetwork, PortConfig
    from repro.topology.graphs import fat_tree
    from repro.workloads import permutation

    frame_bits = 1500 * 8
    graph = fat_tree(FABRIC_K, capacity=10e9)
    hosts = sorted(n for n, d in graph.nodes(data=True)
                   if d.get("kind") == "host")
    flows = permutation([hosts[i] for i in order], demand=4e9, rounds=2)
    config = PortConfig(q0=8 * frame_bits, buffer_bits=150 * frame_bits)
    net = MultiHopNetwork(graph, flows, config, frame_bits=frame_bits,
                          propagation_delay=5e-6, **kwargs)
    return net.run(FABRIC_DURATION)


def fabric(ctx: Context) -> Outcome:
    """MultiHopNetwork on fat_tree(8), serial and sharded (8 shards,
    2 workers); the seed orders the pods in the permutation."""
    setup = [time_probe("pool") for _ in range(SETUP_REPEATS)]
    import repro.simulation.multihop  # noqa: F401

    load_backend(ctx)
    order = host_order(ctx.seed)
    outcome = Outcome(setup, engines=[
        "multihop:reference",
        f"multihop:reference sharded {FABRIC_SHARDS}x{FABRIC_WORKERS}"])

    def one_pass(i: int) -> dict:
        kinds = [("serial", {}),
                 ("sharded", {"shards": FABRIC_SHARDS,
                              "workers": FABRIC_WORKERS})]
        if i % 2:
            kinds.reverse()
        walls, delivered = {}, {}
        for kind, kwargs in kinds:
            # The sharded run's pool gets both CPUs, a worker on each.
            if kwargs:
                os.sched_setaffinity(0, ALL_CPUS)
            try:
                start = now()
                result = _fabric_run(order, **kwargs)
                walls[kind] = now() - start
            finally:
                share_one_cpu()
            delivered[kind] = sum(result.per_flow_delivered_bits.values())
        outcome.check(delivered["serial"] > 0, "serial delivered nothing")
        outcome.check(
            abs(delivered["sharded"] - delivered["serial"])
            <= FABRIC_TOLERANCE * delivered["serial"],
            f"sharded delivery {delivered['sharded']} vs serial "
            f"{delivered['serial']}")
        return {"pass_s": walls["serial"] + walls["sharded"],
                "slow_path_ms": 1e3 * walls["serial"],
                "fast_path_ms": 1e3 * walls["sharded"]}

    measure(ctx, outcome, one_pass, "fabric_serial_s", "fabric_sharded_s")
    return outcome


# -- serve-mix ----------------------------------------------------------------


class Server:
    """One ``repro serve`` process over an on-disk cache.

    Untraced it is ``python -m repro serve``; traced it runs through
    ``serve_launcher.py``, which wraps the layers before entering the
    same CLI entry point and dumps its spans when the server drains.
    """

    def __init__(self, cache_dir: Path, spool_dir: Path,
                 trace_out: Path | None = None):
        args = ["serve", "--cache-dir", str(cache_dir), "--spool-dir",
                str(spool_dir), "--port", "0"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(PERFBENCH / "serve_launcher.py"),
                   str(trace_out), *args]
        from repro.serve.client import ServeClient

        start = now()
        self.proc = subprocess.Popen(cmd, env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        try:
            line = self.proc.stdout.readline()
            self.port = json.loads(line)["listening"]["port"]
            with ServeClient("127.0.0.1", self.port) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        self.start_s = now() - start

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", self.port)

    def stop(self) -> dict:
        """Drain, wait for exit, and return the server's counters."""
        try:
            with self.client() as client:
                counters = client.stats()["counters"]
                client.drain()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return counters

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


class JobStream:
    """The deterministic job sequence.

    Cold jobs cycle through the presets with never-seen seeds (every
    fourth cold job is a two-seed sweep); warm jobs cycle through the
    pool of one scenario per preset and two sweeps.
    """

    def __init__(self, seed: int, presets: list[str]):
        self.rng = random.Random(seed)
        self.presets = presets
        self.used: set[int] = set()
        self.pool = [{"kind": "scenario", "preset": p,
                      "seed": self._fresh()} for p in presets]
        self.pool += [{"kind": "sweep", "preset": presets[i % len(presets)],
                       "seeds": [self._fresh(), self._fresh()]}
                      for i in (0, 1)]
        self._cold = 0
        self._warm = 0

    def _fresh(self) -> int:
        while True:
            s = self.rng.randrange(1 << 30)
            if s not in self.used:
                self.used.add(s)
                return s

    def cold(self) -> dict:
        c = self._cold
        self._cold += 1
        preset = self.presets[c % len(self.presets)]
        if c % 4 == 3:
            return {"kind": "sweep", "preset": preset,
                    "seeds": [self._fresh(), self._fresh()]}
        return {"kind": "scenario", "preset": preset, "seed": self._fresh()}

    def warm(self) -> int:
        """Index into :attr:`pool` of the next warm job."""
        w = self._warm
        self._warm += 1
        return w % len(self.pool)


def _closed_loop(server: Server, stream: JobStream, seconds: float,
                 primed: list[str], outcome: Outcome) -> dict:
    """Rounds of SERVE_COLD_EVERY jobs over two connections for
    ``seconds``: one cold job on the first connection, then the round's
    warm jobs on the second, each sent only after the previous answer.

    The connections take turns rather than overlap: with a cold job
    computing on the server's job thread, every warm answer waits for
    the interpreter lock, and whether it had to made the warm median
    jump between about 1 and 5 ms from run to run.
    """
    samples: list[tuple[str, float]] = []

    def submit(client, kind: str, job: dict, pool_index: int) -> None:
        start = now()
        response = client.submit(job, wait=True)
        samples.append((kind, now() - start))
        outcome.check(response.get("state") == "done",
                      f"{job}: {response.get('state')}")
        if pool_index >= 0:
            same = json.dumps(response.get("result"),
                              sort_keys=True) == primed[pool_index]
            outcome.check(same, f"{job}: warm envelope differs from the "
                                "first")

    start, ref_start = time.perf_counter(), now()
    with server.client() as cold, server.client() as warm:
        while time.perf_counter() - start < seconds:
            submit(cold, "cold", stream.cold(), -1)
            for _ in range(SERVE_COLD_EVERY - 1):
                index = stream.warm()
                submit(warm, "warm", stream.pool[index], index)
    return {"samples": samples, "elapsed": now() - ref_start}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value) for the highest of a fixed ladder of percentiles that
    has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.5, 99, 98, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            index = min(n - 1, int(n * p / 100))
            return p, ordered[index]
    return 50.0, median(ordered)


def _job_traces(spool: Path) -> list[list[dict]]:
    traces = []
    for path in sorted(spool.glob("*.trace.jsonl")):
        lines = path.read_text().splitlines()[1:]   # skip the header
        traces.append([json.loads(line) for line in lines if line])
    return traces


def serve_mix(ctx: Context) -> Outcome:
    """A closed loop of 2 connections against a ``repro serve`` process
    with an on-disk cache; one job in four is cold."""
    from repro.scenarios import preset_names

    backend = load_backend(ctx)
    cache_dir = ctx.work_dir / "serve-cache"
    stream = JobStream(ctx.seed, preset_names())

    # Set-up: three server starts.  The first primes the warm pool into
    # the cache (untimed work), the last one serves the measured loop.
    spools = (ctx.work_dir / f"spool-{i}" for i in range(SETUP_REPEATS + 1))
    setup, primed = [], []
    server = Server(cache_dir, next(spools))
    try:
        setup.append(server.start_s)
        with server.client() as client:
            for job in stream.pool:
                primed.append(json.dumps(client.run(job), sort_keys=True))
    finally:
        server.stop()
    for _ in range(SETUP_REPEATS - 2):
        server = Server(cache_dir, next(spools))
        setup.append(server.start_s)
        server.stop()
    outcome = Outcome(setup, engines=["serve:reference"])

    server = Server(cache_dir, next(spools))
    setup.append(server.start_s)
    try:
        loop = _closed_loop(server, stream,
                            ctx.seconds / 2 if ctx.trace else ctx.seconds,
                            primed, outcome)
    finally:
        counters = server.stop()
    if ctx.trace:
        dump = ctx.work_dir / "serve-spans.jsonl"
        spool = next(spools)
        server = Server(cache_dir, spool, trace_out=dump)
        try:
            traced = _closed_loop(server, stream, ctx.seconds / 2, primed,
                                  outcome)
        finally:
            counters = server.stop()
        serve = layers.serve_layer(_job_traces(spool), counters)
        rate = len(loop["samples"]) / loop["elapsed"]
        traced_rate = len(traced["samples"]) / traced["elapsed"]
        outcome.per_layer = layers.layer_metrics(
            [*trace_sources(ctx), load_dump(dump)], serve=serve,
            overhead_frac=rate / traced_rate - 1.0)

    samples = loop["samples"]
    cold = [1e3 * s for k, s in samples if k == "cold"]
    warm = [1e3 * s for k, s in samples if k == "warm"]
    jobs_per_s = len(samples) / loop["elapsed"]
    tail_p, tail_ms = tail_percentile(cold + warm)
    outcome.e2e = {"pass_s": 100.0 / jobs_per_s,
                   "slow_path_ms": median(cold), "fast_path_ms": median(warm)}
    outcome.named = {
        "jobs_per_s": (jobs_per_s, "1/s"),
        "warm_job_p50_ms": (median(warm), "ms"),
        "cold_job_p50_ms": (median(cold), "ms"),
        f"job_tail_ms.p{tail_p:g}": (tail_ms, "ms"),
        "jobs": (len(samples), "count"),
        "server_failed": (counters.get("serve.failed", 0), "count"),
    }
    outcome.engines.append(f"kernel:{backend.name}")
    return outcome


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "paper-repro": paper_repro,
    "scenario-sweep": scenario_sweep,
    "fabric": fabric,
    "serve-mix": serve_mix,
}
