"""The temporal kernel's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload slice_warm --seed 1 --seconds 8 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that splits each operation's time across the
program's layers (see ``perfbench/README.md``).  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full record (inputs, host facts, sample counts) is the
line before it and a file under ``.perfbench/results/``.  The exit code
is nonzero when a correctness check fails or the program cannot run.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("slice_warm", "history_cold", "mixed_wire")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path,
                        default=common.WORK / "results",
                        help="where the full result record is written")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the server subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.import_repro()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    work = common.WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    common.fresh_dir(work)
    try:
        if args.workload == "mixed_wire":
            import wire
            return wire.run(args.seed, args.seconds, bool(args.trace), work,
                            args.results_dir)
        import inproc
        config = (inproc.SLICE_WARM if args.workload == "slice_warm"
                  else inproc.HISTORY_COLD)
        return inproc.run(config, args.seed, args.seconds, bool(args.trace),
                          work, args.results_dir)
    except common.CheckFailed as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
