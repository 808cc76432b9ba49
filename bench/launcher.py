"""Run one framebench CLI command with the benchmark's span recorder installed.

    python3 bench/launcher.py SPANS_JSON -- <framebench CLI arguments>

Imports ``framebench.cli`` untraced, patches the layer boundaries listed in
``spans.Tracer.install``, calls ``framebench.cli.main`` and writes the
recorded spans to SPANS_JSON.  Exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

import framebench.cli

import spans


def main(argv):
    out, rest = argv[0], argv[2:] if argv[1:2] == ["--"] else argv[1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return framebench.cli.main(rest)
    finally:
        tracer.restore()
        Path(out).write_text(json.dumps([s.to_json() for s in tracer.spans]),
                             encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
