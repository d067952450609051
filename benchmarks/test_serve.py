"""Bench S — job-server throughput: jobs/sec at 1/8/32 clients.

Each workload drives one :class:`repro.serve.server.JobServer` (real
sockets on loopback, newline-delimited JSON protocol) with a fixed
batch of 32 scenario jobs split across N concurrent clients, and is
measured twice:

* ``engine="reference"`` — **cold cache**: every round submits jobs
  with fresh, never-seen seeds, so each one is computed by the runner.
  This is the end-to-end cost of accept → canonicalise → execute →
  envelope → respond;
* ``engine="warm"`` — **warm cache**: the same 32 jobs were computed
  once before timing, so every submission dedups against the server's
  done-job table / result cache.  This isolates the serving overhead
  (protocol + dedup + envelope fan-out) from simulation compute.

``tools/bench_report.py`` pairs ``warm`` against the cold ``baseline``
row per workload, and the CI gate fails when the warm path stops being
substantially faster than recomputing — i.e. when dedup breaks or the
protocol layer grows a bottleneck.  ``extra_info`` records ``jobs``,
``clients`` and the derived ``jobs_per_second``.

The server runs with ``max_concurrent=4`` compute slots throughout, so
the client-count axis measures protocol/dedup scaling, not extra
compute parallelism.
"""

import itertools
import threading

from repro.serve.server import JobState, ServeConfig
from repro.serve.testing import ServerHarness

JOBS_PER_ROUND = 32
ROUNDS = 3

_fresh_seed = itertools.count(1_000_000).__next__


def _cold_jobs():
    """A batch of jobs no cache has ever seen."""
    return [{"kind": "scenario", "preset": "dc-baseline",
             "seed": _fresh_seed()} for _ in range(JOBS_PER_ROUND)]


def _warm_jobs():
    return [{"kind": "scenario", "preset": "dc-baseline", "seed": -s - 1}
            for s in range(JOBS_PER_ROUND)]


def _submit_all(harness, jobs, clients):
    """Split ``jobs`` across ``clients`` concurrent connections and wait
    for every result; raises if any job fails."""
    failures = []

    def worker(chunk):
        try:
            with harness.client() as client:
                for job in chunk:
                    response = client.submit(job, wait=True)
                    if response["state"] != JobState.DONE:
                        failures.append(response)
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    chunks = [jobs[i::clients] for i in range(clients)]
    threads = [threading.Thread(target=worker, args=(chunk,))
               for chunk in chunks if chunk]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[:3]


def _bench_serve(benchmark, tmp_path, *, clients, warm):
    config = ServeConfig(cache_dir=tmp_path / "cache", max_concurrent=4)
    with ServerHarness(config) as harness:
        if warm:
            jobs = _warm_jobs()
            _submit_all(harness, jobs, clients)  # prime outside timing
            benchmark.pedantic(lambda: _submit_all(harness, jobs, clients),
                               rounds=ROUNDS, iterations=1)
        else:
            benchmark.pedantic(
                lambda jobs: _submit_all(harness, jobs, clients),
                setup=lambda: ((_cold_jobs(),), {}),
                rounds=ROUNDS, iterations=1)
        with harness.client() as client:
            counters = client.stats()["counters"]
    expected = JOBS_PER_ROUND * (1 if warm else ROUNDS)
    assert counters["serve.computed"] == expected
    benchmark.extra_info.update(
        workload=f"serve_jobs_c{clients}",
        engine="warm" if warm else "reference", baseline=not warm,
        jobs=JOBS_PER_ROUND, clients=clients,
        jobs_per_second=JOBS_PER_ROUND / benchmark.stats.stats.mean)


def test_bench_serve_1_client_cold(benchmark, tmp_path):
    _bench_serve(benchmark, tmp_path, clients=1, warm=False)


def test_bench_serve_1_client_warm(benchmark, tmp_path):
    _bench_serve(benchmark, tmp_path, clients=1, warm=True)


def test_bench_serve_8_clients_cold(benchmark, tmp_path):
    _bench_serve(benchmark, tmp_path, clients=8, warm=False)


def test_bench_serve_8_clients_warm(benchmark, tmp_path):
    _bench_serve(benchmark, tmp_path, clients=8, warm=True)


def test_bench_serve_32_clients_cold(benchmark, tmp_path):
    _bench_serve(benchmark, tmp_path, clients=32, warm=False)


def test_bench_serve_32_clients_warm(benchmark, tmp_path):
    _bench_serve(benchmark, tmp_path, clients=32, warm=True)
