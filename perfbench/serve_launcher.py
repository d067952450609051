"""Run ``repro serve`` with the benchmark's layer wrappers installed.

``python3 perfbench/serve_launcher.py SPANS.jsonl serve [serve args]``
installs the tracer, enters the CLI's public entry point
(:func:`repro.cli.main`) and, once the server has drained and returned,
removes the wrappers and writes the spans to ``SPANS.jsonl``.
"""

import sys

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    from repro import cli

    tracer = Tracer()
    layers.install(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
