"""Run ``repro serve`` in this process, optionally under the layer wrappers.

    python perf/daemon.py [--spans FILE] -- serve --port 0

With ``--spans`` every wrapped call is recorded; when the daemon shuts
down, FILE receives one JSON document holding the wrapper cost measured
in this process and the span tuples.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

PERF_DIR = Path(__file__).resolve().parent


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]
    sys.path.insert(0, str(PERF_DIR.parent / "src"))
    from repro.cli import main as repro_main

    if args.spans is None:
        return repro_main(serve_args)
    import layers
    wrapper_seconds = layers.wrapper_cost()
    tracer = layers.Tracer()
    installation = layers.install(tracer)
    try:
        return repro_main(serve_args)
    finally:
        installation.restore()
        with open(args.spans, "w") as fh:
            json.dump({"wrapper_seconds": wrapper_seconds,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
