"""Run the policygym CLI with perfbench spans installed, then write them out.

    python perfbench/traced_cli.py SPANS.json rollout PACKAGE --agent-cmd ... --json

The policygym sources must be importable (``PYTHONPATH=src``). The exit code
is the CLI's own.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from policygym import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
