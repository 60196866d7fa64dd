"""Run the discharge service for the service-stream workload.

    python3 perfbench/serve.py --root DIR [--trace SPANS.json]

The server runs the default :class:`repro.service.ServiceConfig` with only
its root set, on an ephemeral port it prints on its first line, until
SIGTERM drains it.  With ``--trace`` the layer wrappers are installed in
this process too, and its spans and counts are written to ``SPANS.json``
when it exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    from repro.service import ServiceConfig, serve_forever

    tracer = None
    if args.trace:
        from layers import TARGETS, import_layers
        from tracing import Tracer

        import_layers()
        tracer = Tracer()
        tracer.install(TARGETS)
    try:
        asyncio.run(serve_forever(ServiceConfig(root=args.root), port=0))
    finally:
        if tracer is not None:
            tracer.restore()
            payload = {"spans": tracer.spans, "counts": dict(tracer.counts)}
            Path(args.trace).write_text(json.dumps(payload))


if __name__ == "__main__":
    main()
