"""Launch ``repro serve`` for the predict_http workload.

    python3 perfbench/serve.py MODEL --journal PATH [--summary S --spans P]

Runs the CLI's ``serve`` command in this process on a free port (the
bound port prints to stderr) with its request journal on.  With
``--summary``/``--spans`` the benchmark's wrappers are installed first,
and when SIGTERM stops the server the self-time summary (JSON) and the
spans (JSONL) are written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model")
    parser.add_argument("--journal", required=True)
    parser.add_argument("--summary")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main

    serve_args = ["serve", args.model, "--port", "0",
                  "--journal", args.journal]
    if args.summary is None:
        return repro_main(serve_args)

    from tracing import BATCH_TARGETS, SERVER_TARGETS, Tracer, installed

    tracer = Tracer(request_root="surrogate.parse")
    with installed(tracer, BATCH_TARGETS + SERVER_TARGETS):
        code = repro_main(serve_args)
    if args.spans:
        tracer.write_jsonl(args.spans)
    Path(args.summary).write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
