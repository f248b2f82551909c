"""Run the transitq CLI with the benchmark's span tracer installed.

    python3 perfbench/tracedcli.py <spans.json> <transitq arguments...>

Writes the spans of the call to ``spans.json`` when the command returns.
Spans of ``sweep --jobs N`` worker processes stay in the workers.
"""

import sys

from tracing import Tracer


def main() -> int:
    import transitq.cli as cli
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
