"""Run one ``kreinls`` command with the span tracer installed.

Used in place of ``python -m kreinls.cli`` in traced benchmark rounds:
the first span, ``cli.import``, times the fresh-interpreter import of
``kreinls.cli``; the rest are the command's own spans, tagged with the
benchmark operation named by ``PERFBENCH_OP``.  They are written to the
file named by ``PERFBENCH_SPANS`` when the command ends.

    PERFBENCH_SPANS=spans.jsonl PYTHONPATH=src \\
        python3 perfbench/clilaunch.py ims -i problem.json
"""

import os
import sys

import tracer as tracing


def main():
    t = tracing.Tracer()
    t.op = os.environ.get("PERFBENCH_OP", "cli")
    with t.span("cli.import"):
        import kreinls.cli as cli
    t.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        t.uninstall()
        tracing.dump(os.environ["PERFBENCH_SPANS"], [t.spans])


if __name__ == "__main__":
    sys.exit(main())
