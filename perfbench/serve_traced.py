"""Run ``repro serve`` with the benchmark's layer tracing switched by
signal, so one server process gives both an untraced and a traced
window:

    python3 perfbench/serve_traced.py CONTROL_DIR serve --path DB --port 0

* SIGUSR1 installs the layer wrappers of ``tracing.py`` plus the
  admission-controller hooks, then creates ``CONTROL_DIR/on``.
* SIGUSR2 removes them, writes ``CONTROL_DIR/totals.json`` (per-layer
  aggregates) and ``CONTROL_DIR/spans.jsonl`` (the kept spans), then
  creates ``CONTROL_DIR/off``.

Everything after CONTROL_DIR is passed to ``python -m repro``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    control = Path(sys.argv[1])
    common.import_repro()
    import tracing
    from repro.__main__ import main as repro_main

    tracer = tracing.Tracer()

    def start_tracing(signum, frame) -> None:
        tracer.reset()
        tracer.install()
        tracer.install_server_hooks()
        (control / "on").touch()

    def stop_tracing(signum, frame) -> None:
        tracer.uninstall()
        staged = control / "totals.json.tmp"
        staged.write_text(json.dumps(tracer.totals()))
        os.replace(staged, control / "totals.json")
        tracer.write_spans(control / "spans.jsonl")
        (control / "off").touch()

    signal.signal(signal.SIGUSR1, start_tracing)
    signal.signal(signal.SIGUSR2, stop_tracing)
    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
