"""Traced ``lapcov`` command for the cold_cli workload.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <lapcov arguments...>

Behaves like ``python -m lapcov.cli <arguments>`` (same stdout, stderr and
exit code) but imports lapcov under a span, installs the layer wrappers of
``layers.py``, and writes the tracer's export to SPANS_JSON on exit.
"""

import json
import sys

from layers import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.cmd = argv[0] if argv else None
    try:
        with tracer.span("cli"):
            with tracer.span("cli.import"):
                import lapcov.cli
            tracer.install()
            code = lapcov.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
