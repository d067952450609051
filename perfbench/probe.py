"""One fresh set-up, timed from outside by the benchmark.

``python3 perfbench/probe.py KIND`` imports what a workload needs and
loads the kernel backend; ``pool`` also spawns the fabric workload's
two-worker pool and shuts it down; ``kernels`` only loads (and on
first use builds) the kernel backend.  Prints the backend's name.
"""

import sys


def main(kind: str) -> None:
    if kind == "experiments":
        import repro.experiments  # noqa: F401 — registers the experiments
        import repro.runner  # noqa: F401
    elif kind == "scenarios":
        import repro.scenarios  # noqa: F401
    elif kind == "pool":
        import repro.simulation.multihop  # noqa: F401
        from repro.runner import PersistentWorkerPool

        with PersistentWorkerPool(2) as pool:
            for worker in range(2):
                pool.create(worker, "probe", dict)
            for worker in range(2):
                pool.result(worker)
    elif kind != "kernels":
        raise SystemExit(f"unknown probe {kind!r}")
    from repro.kernels import get_backend

    print(get_backend().name)


if __name__ == "__main__":
    main(sys.argv[1])
