"""The update service with every layer timed from outside.

    python perfbench/traced_server.py LAYERS_JSON serve --socket PATH ...

Installs the :mod:`layers` wrappers, turns on the ``repro.obs`` counters,
runs ``repro.cli serve`` with the remaining arguments and, once the
service has drained, writes the layer times and counter deltas to
``LAYERS_JSON``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LayerClock, obs_counts  # noqa: E402
from repro import obs  # noqa: E402
from repro.cli import main  # noqa: E402


def traced_main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    # Create the counter state in this context before the event loop
    # starts, so every connection task's copied context shares it.
    tracer = obs.tracer()
    clock = LayerClock()
    # Spans are not read; drop them after each reply so memory stays flat.
    clock.install(after={"server.encode": tracer.clear})
    obs.enable()
    before = obs_counts()
    try:
        code = main(serve_args)
    finally:
        obs.disable()
        clock.uninstall()
    after = obs_counts()
    Path(out).write_text(json.dumps({
        "clock": clock.snapshot(),
        "counters": {name: after[name] - before[name] for name in after},
    }))
    return code


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
