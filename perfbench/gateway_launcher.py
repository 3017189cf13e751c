"""Run ``python -m repro.gateway`` with the traced run's timing wrappers installed.

Usage: ``gateway_launcher.py SPAN_DUMP [gateway arguments...]``.  The
wrappers are installed, then ``repro.gateway.__main__.main`` serves exactly
as the plain CLI would; when it returns (after a SIGTERM drain) every span
recorded in this process is written to ``SPAN_DUMP`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402  (needs the path above)


def launch(argv) -> int:
    span_dump, gateway_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.gateway.__main__ import main

    try:
        return main(gateway_args)
    finally:
        with open(span_dump, "w") as handle:
            json.dump(recorder.spans, handle)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
